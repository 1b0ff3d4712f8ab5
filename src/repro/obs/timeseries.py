"""Scrape-driven time series: record ``/metrics`` samples over a run.

The soak harness must prove *sustained* properties — flat throughput,
bounded memory, zero result loss — and it must prove them from the same
surface an operator would watch, not from privileged in-process state.
This module is that consumer side of the scrape endpoint:

* :func:`scrape` — one HTTP GET of a :class:`~repro.obs.MetricsServer`
  endpoint, parsed with :func:`~repro.obs.parse_prometheus` into a
  timestamped :class:`ScrapePoint`.
* :class:`ScrapeRecorder` — a daemon thread polling an endpoint on an
  interval, appending every point to an in-memory :class:`SeriesStore`
  and (optionally) to a JSONL file that :func:`load_series` reads back.
* :class:`SeriesStore` — the recorded series plus the derived views the
  SLO rules consume: counter deltas and per-window rates, gauge extrema,
  and per-window histogram-delta quantiles (the delta of two cumulative
  ``_bucket`` snapshots is itself a histogram of just that window's
  observations — exact, because the exposition buckets merge by
  addition).

Everything is stdlib-only (``urllib`` + ``threading``), mirroring the
server side.
"""

from __future__ import annotations

import json
import threading
import time
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .exposition import parse_prometheus

__all__ = [
    "ScrapePoint",
    "ScrapeRecorder",
    "SeriesStore",
    "WindowRate",
    "fetch_metrics",
    "load_series",
    "scrape",
]

#: ``(name, ((label, value), ...))`` — the key type of ``parse_prometheus``.
Sample = Tuple[str, Tuple[Tuple[str, str], ...]]


class ScrapePoint(NamedTuple):
    """One scrape: a wall-clock timestamp and every parsed sample."""

    time_s: float
    samples: Dict[Sample, float]


class WindowRate(NamedTuple):
    """A counter's behaviour over one recorded window."""

    start_s: float
    end_s: float
    delta: float
    rate: float


def fetch_metrics(url: str, timeout_s: float = 10.0) -> str:
    """GET a metrics endpoint and return the exposition text."""
    import urllib.request  # loads ssl and http.client: only where one scrapes

    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        return response.read().decode("utf-8")


def scrape(url: str, timeout_s: float = 10.0,
           clock: Callable[[], float] = time.time) -> ScrapePoint:
    """One timestamped scrape of ``url`` (text fetched, then parsed)."""
    stamp = clock()
    return ScrapePoint(stamp, parse_prometheus(fetch_metrics(url, timeout_s)))


def _point_to_json(point: ScrapePoint) -> str:
    samples = [[name, [list(pair) for pair in labels], value]
               for (name, labels), value in sorted(point.samples.items())]
    return json.dumps({"t": point.time_s, "samples": samples})


def _point_from_json(line: str) -> ScrapePoint:
    record = json.loads(line)
    samples = {
        (name, tuple((key, value) for key, value in labels)): float(number)
        for name, labels, number in record["samples"]}
    return ScrapePoint(float(record["t"]), samples)


def load_series(path) -> "SeriesStore":
    """Read a recorder's JSONL file back into a :class:`SeriesStore`."""
    store = SeriesStore()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                store.append(_point_from_json(line))
    return store


def _selector(labels: Optional[Dict[str, str]]) -> set:
    """A label selector as the set of ``(label, value)`` pairs a matching
    series must carry."""
    return {(str(k), str(v)) for k, v in (labels or {}).items()}


class SeriesStore:
    """A recorded scrape series and the window arithmetic over it.

    Every view selects the same way: a label selector matches each series
    whose labels contain it, and the matches are summed, so fleet-wide
    rules read one number no matter the shard count. Windows are
    consecutive index ranges over the recorded points; each window's end
    point is the next window's start, so window deltas chain back to the
    whole-run delta exactly.
    """

    def __init__(self, points: Sequence[ScrapePoint] = ()):
        self.points: List[ScrapePoint] = list(points)

    def append(self, point: ScrapePoint) -> None:
        self.points.append(point)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def duration_s(self) -> float:
        if len(self.points) < 2:
            return 0.0
        return self.points[-1].time_s - self.points[0].time_s

    # ------------------------------------------------------------- selectors
    def value(self, name: str, labels: Optional[Dict[str, str]] = None,
              index: int = -1) -> Optional[float]:
        """A metric at one recorded point, summed over every series whose
        labels contain the selector ``labels`` (all of its series when
        there is none).

        ``None`` when no series matched in that scrape — distinct from an
        exposed value of 0.
        """
        if not self.points:
            return None
        wanted = _selector(labels)
        found = None
        for (sample_name, label_tuple), sample_value in \
                self.points[index].samples.items():
            if sample_name == name and wanted <= set(label_tuple):
                found = (found or 0.0) + sample_value
        return found

    def series(self, name: str,
               labels: Optional[Dict[str, str]] = None
               ) -> List[Tuple[float, float]]:
        """``(time, value)`` of :meth:`value` at every recorded point,
        skipping the scrapes in which nothing matched."""
        out = []
        for index, point in enumerate(self.points):
            value = self.value(name, labels, index)
            if value is not None:
                out.append((point.time_s, value))
        return out

    def max_over_time(self, name: str) -> Optional[float]:
        """Max of a metric over every scrape *and* every label set."""
        best = None
        for point in self.points:
            for (sample_name, _), value in point.samples.items():
                if sample_name == name and (best is None or value > best):
                    best = value
        return best

    # --------------------------------------------------------------- windows
    def window_bounds(self, windows: int) -> List[Tuple[int, int]]:
        """Split the recorded points into consecutive (start, end) indices.

        Each pair shares its end with the next pair's start, so per-window
        deltas sum to the whole-run delta. Needs at least ``windows + 1``
        points; fewer points yield fewer (possibly zero) windows.
        """
        if windows < 1:
            raise ValueError("windows must be >= 1")
        count = len(self.points)
        if count < 2:
            return []
        windows = min(windows, count - 1)
        edges = [round(i * (count - 1) / windows) for i in range(windows + 1)]
        return [(edges[i], edges[i + 1]) for i in range(windows)
                if edges[i] < edges[i + 1]]

    def counter_delta(self, name: str, start: int = 0,
                      end: int = -1) -> Optional[float]:
        """Label-summed counter growth between two recorded points."""
        first = self.value(name, index=start)
        last = self.value(name, index=end)
        if last is None:
            return None
        return last - (first if first is not None else 0.0)

    def rate_windows(self, name: str, windows: int) -> List[WindowRate]:
        """Per-window (delta, rate) of a label-summed counter."""
        out = []
        for start, end in self.window_bounds(windows):
            delta = self.counter_delta(name, start, end)
            if delta is None:
                continue
            elapsed = self.points[end].time_s - self.points[start].time_s
            rate = delta / elapsed if elapsed > 0 else 0.0
            out.append(WindowRate(self.points[start].time_s,
                                  self.points[end].time_s, delta, rate))
        return out

    # ------------------------------------------------------------ histograms
    def _bucket_deltas(self, name: str, labels: Optional[Dict[str, str]],
                       start: int, end: int
                       ) -> Tuple[List[Tuple[float, float]], float]:
        """Per-bucket observation deltas of one histogram over a window.

        Returns ``([(upper_bound, delta_in_bucket), ...], total_count)``
        with cumulative counts un-cumulated, summed across label sets that
        contain ``labels`` (so a per-shard histogram aggregates exactly —
        fixed shared bucket ladders merge by addition).
        """
        if not self.points:
            return [], 0.0
        wanted = _selector(labels)
        bucket_name = f"{name}_bucket"

        def cumulative(index: int) -> Dict[float, float]:
            totals: Dict[float, float] = {}
            for (sample, label_tuple), value in self.points[index].samples.items():
                if sample != bucket_name:
                    continue
                label_map = dict(label_tuple)
                bound_text = label_map.pop("le", None)
                if bound_text is None:
                    continue
                if not wanted <= set(label_map.items()):
                    continue
                bound = float("inf") if bound_text == "+Inf" \
                    else float(bound_text)
                totals[bound] = totals.get(bound, 0.0) + value
            return totals

        first = cumulative(start)
        last = cumulative(end)
        if not last:
            return [], 0.0
        bounds = sorted(last)
        deltas = []
        previous = 0.0
        for bound in bounds:
            cumulative_delta = last[bound] - first.get(bound, 0.0)
            deltas.append((bound, cumulative_delta - previous))
            previous = cumulative_delta
        total = last[bounds[-1]] - first.get(bounds[-1], 0.0)
        return deltas, total

    def histogram_count(self, name: str,
                        labels: Optional[Dict[str, str]] = None,
                        start: int = 0, end: int = -1) -> float:
        """Observations a histogram gained over a window."""
        _, total = self._bucket_deltas(name, labels, start, end)
        return total

    def histogram_quantile(self, q: float, name: str,
                           labels: Optional[Dict[str, str]] = None,
                           start: int = 0, end: int = -1) -> Optional[float]:
        """Conservative q-quantile of one window's histogram delta.

        The same upper-bucket-bound estimate as
        :meth:`repro.obs.Histogram.quantile`, computed from scraped
        cumulative buckets — ``None`` when the window saw no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        deltas, total = self._bucket_deltas(name, labels, start, end)
        if total <= 0:
            return None
        rank = q * total
        cumulative = 0.0
        for bound, delta in deltas:
            cumulative += delta
            if cumulative >= rank and delta > 0:
                return bound
        return deltas[-1][0]

    def quantile_windows(self, q: float, name: str,
                         labels: Optional[Dict[str, str]] = None,
                         windows: int = 5
                         ) -> List[Tuple[float, float, Optional[float]]]:
        """``(start_s, end_s, quantile-or-None)`` per recorded window."""
        out = []
        for start, end in self.window_bounds(windows):
            out.append((self.points[start].time_s, self.points[end].time_s,
                        self.histogram_quantile(q, name, labels, start, end)))
        return out


class ScrapeRecorder:
    """Poll a metrics endpoint on an interval from a daemon thread.

    Every successful scrape lands in :attr:`store` (and, when ``path`` is
    given, as one JSONL line — the format :func:`load_series` reads).
    Scrape failures are counted in :attr:`errors` and retried on the next
    tick rather than killing the thread; :meth:`stop` takes one final
    synchronous scrape by default so the series always ends on the state
    the run finished in.
    """

    def __init__(self, url: str, interval_s: float = 1.0,
                 path=None, timeout_s: float = 5.0,
                 clock: Callable[[], float] = time.time):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.url = url
        self.interval_s = interval_s
        self.timeout_s = timeout_s
        self.path = path
        self.store = SeriesStore()
        self.errors = 0
        self.last_error: Optional[str] = None
        self._clock = clock
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._handle = None
        self._lock = threading.Lock()

    def scrape_once(self) -> Optional[ScrapePoint]:
        """Scrape synchronously; record the point (or the error) and return it."""
        try:
            point = scrape(self.url, timeout_s=self.timeout_s,
                           clock=self._clock)
        except Exception as error:  # noqa: BLE001 - recorded, not fatal
            self.errors += 1
            self.last_error = f"{type(error).__name__}: {error}"
            return None
        with self._lock:
            self.store.append(point)
            if self.path is not None:
                if self._handle is None:
                    self._handle = open(self.path, "a", encoding="utf-8")
                self._handle.write(_point_to_json(point) + "\n")
                self._handle.flush()
        return point

    def start(self) -> "ScrapeRecorder":
        if self._thread is not None:
            raise RuntimeError("recorder already started")
        self._thread = threading.Thread(target=self._run,
                                        name="repro-scrape-recorder",
                                        daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.is_set():
            self.scrape_once()
            self._stop.wait(self.interval_s)

    def stop(self, final_scrape: bool = True) -> SeriesStore:
        """Stop polling (joining the thread) and return the recorded store."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=max(10.0, 2 * self.timeout_s))
            self._thread = None
        if final_scrape:
            self.scrape_once()
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
        return self.store

    def __enter__(self) -> "ScrapeRecorder":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop(final_scrape=False)
