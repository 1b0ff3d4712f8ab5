"""Prometheus-style text exposition and the stdlib scrape endpoint.

``render_prometheus`` turns a :class:`~repro.obs.MetricsRegistry` into the
text format Prometheus scrapes (version 0.0.4): ``# HELP`` / ``# TYPE``
headers, ``name{label="value"} value`` samples, histograms as cumulative
``_bucket{le=...}`` series plus ``_sum`` and ``_count``. ``parse_prometheus``
is the inverse for the sample lines (used by the golden tests to assert the
exposition agrees with ``ServiceMetrics``). :class:`MetricsServer` serves
the rendering on ``/metrics`` from a daemon thread — stdlib
``http.server`` only, no new dependencies — plus the ops probes:
``/healthz`` (the current SLO verdict, when a health callable is given)
and ``/ready`` (cheap liveness of the render path). ``add_process_metrics``
stamps the process-level gauges (RSS, version info) every serving surface
includes, and :class:`RenderCache` decouples *when* metrics are collected
(the owning thread's clock) from *when* they are scraped (any HTTP
client's clock).
"""

from __future__ import annotations

import json
import os
import resource
import threading
from typing import Callable, Dict, Optional, Tuple

from .registry import Histogram, MetricsRegistry

__all__ = [
    "MetricsServer",
    "RenderCache",
    "add_process_metrics",
    "parse_prometheus",
    "process_rss_bytes",
    "render_prometheus",
]


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _labels_text(labels, extra=None) -> str:
    parts = [f'{key}="{_escape(value)}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines = []
    seen_headers = set()
    for metric in registry.collect():
        if metric.name not in seen_headers:
            seen_headers.add(metric.name)
            help_text = registry.help_text(metric.name)
            if help_text:
                lines.append(f"# HELP {metric.name} {help_text}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            cumulative = 0
            for bound, count in zip(metric.buckets, metric.counts):
                cumulative += count
                le = 'le="' + _format_value(bound) + '"'
                lines.append(f"{metric.name}_bucket"
                             f"{_labels_text(metric.labels, le)} {cumulative}")
            cumulative += metric.counts[-1]
            le = 'le="+Inf"'
            lines.append(f"{metric.name}_bucket"
                         f"{_labels_text(metric.labels, le)} {cumulative}")
            lines.append(f"{metric.name}_sum{_labels_text(metric.labels)} "
                         f"{_format_value(metric.total)}")
            lines.append(f"{metric.name}_count{_labels_text(metric.labels)} "
                         f"{metric.count}")
        else:
            lines.append(f"{metric.name}{_labels_text(metric.labels)} "
                         f"{_format_value(metric.value)}")
    return "\n".join(lines) + "\n"


Sample = Tuple[str, Tuple[Tuple[str, str], ...]]


def parse_prometheus(text: str) -> Dict[Sample, float]:
    """Parse exposition sample lines back into ``{(name, labels): value}``.

    Supports exactly what ``render_prometheus`` emits; raises
    ``ValueError`` on anything it cannot parse, so a test that round-trips
    the rendering also proves the output is well-formed.
    """
    samples: Dict[Sample, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        body, _, value_text = line.rpartition(" ")
        if not body:
            raise ValueError(f"unparseable sample line: {line!r}")
        if "{" in body:
            name, _, label_text = body.partition("{")
            if not label_text.endswith("}"):
                raise ValueError(f"unbalanced labels in: {line!r}")
            labels = []
            for part in _split_labels(label_text[:-1]):
                key, _, raw = part.partition("=")
                if not (raw.startswith('"') and raw.endswith('"')):
                    raise ValueError(f"unquoted label value in: {line!r}")
                value = (raw[1:-1].replace(r'\"', '"')
                         .replace(r"\n", "\n").replace(r"\\", "\\"))
                labels.append((key, value))
            key = (name, tuple(sorted(labels)))
        else:
            key = (body, ())
        if value_text == "+Inf":
            value = float("inf")
        elif value_text == "-Inf":
            value = float("-inf")
        else:
            value = float(value_text)
        if key in samples:
            raise ValueError(f"duplicate sample: {key}")
        samples[key] = value
    return samples


def _split_labels(text: str):
    """Split ``a="x",b="y"`` on commas outside quotes."""
    parts, depth, current = [], False, []
    index = 0
    while index < len(text):
        char = text[index]
        if char == "\\" and index + 1 < len(text):
            current.append(char)
            current.append(text[index + 1])
            index += 2
            continue
        if char == '"':
            depth = not depth
        if char == "," and not depth:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
        index += 1
    if current:
        parts.append("".join(current))
    return parts


def process_rss_bytes() -> float:
    """This process's resident set size, in bytes (0 when unreadable).

    Reads ``/proc/self/statm`` where available (Linux: live RSS); falls
    back to ``ru_maxrss`` (the lifetime peak — still usable as an upper
    bound for bounded-memory checks on other platforms).
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            rss_pages = int(handle.read().split()[1])
        return float(rss_pages * (os.sysconf("SC_PAGESIZE")
                                  if hasattr(os, "sysconf") else 4096))
    except (OSError, IndexError, ValueError):
        pass
    try:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return float(peak_kb * 1024)
    except Exception:  # noqa: BLE001 - exposition must never raise
        return 0.0


def add_process_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Stamp the process-level gauges every scrape surface carries.

    ``repro_process_rss_bytes`` is what the soak harness's flat-memory SLO
    reads; ``repro_info{version=...} 1`` is the standard info-metric idiom
    so a scrape identifies the code that produced it.
    """
    from .. import __version__

    registry.gauge("repro_process_rss_bytes",
                   help="Resident set size of the serving process").set(
        process_rss_bytes())
    registry.gauge("repro_info", {"version": __version__},
                   help="Build information (value is always 1)").set(1)
    return registry


class RenderCache:
    """A render callable serving the last snapshot its owner refreshed.

    The serving objects' ``metrics_text`` talks to the shard backends, so
    it must run on the thread that owns them — not on an HTTP server
    thread racing the driver for the command queues. A driver wraps the
    real render in a :class:`RenderCache`, calls :meth:`refresh` between
    work rounds, and hands the cache to :class:`MetricsServer`: scrapes
    are then lock-free reads of the latest snapshot (one atomic attribute
    load), and the collection clock belongs to the owner.

    The cache never renders on a reader's thread: a scrape that arrives
    before the owner's first :meth:`refresh` gets an empty exposition
    (zero samples) rather than racing the owner for the shard command
    queues. Owners should ``refresh()`` once before exposing the cache.
    """

    def __init__(self, render: Callable[[], str]):
        self._render = render
        self._text: Optional[str] = None

    def refresh(self) -> str:
        """Re-render on the calling (owner) thread; returns the new text."""
        text = self._render()
        self._text = text
        return text

    def __call__(self) -> str:
        text = self._text
        return "" if text is None else text


class MetricsServer:
    """A ``/metrics`` scrape endpoint over a render callable.

    ``render`` is called per request on the server thread (it must be
    thread-safe; ``DetectionService.metrics_text`` is — it only reads —
    and :class:`RenderCache` makes any render safe by snapshotting).
    Port 0 (the default) picks a free port; read it back from ``.port``.

    ``health``, when given, serves ``/healthz``: it is called per probe
    and must return a :class:`~repro.obs.health.HealthReport` (or any
    object with ``passed`` and ``as_dict()``); the response is its JSON
    with HTTP 200 when passing, 503 when failing. Without a health
    callable ``/healthz`` is a plain liveness probe (always 200).
    ``ready``, when given, gates ``/ready`` (200/503 on its boolean);
    without it ``/ready`` reports 200 once the render callable works.
    Both responses carry ``repro.__version__``.
    """

    def __init__(self, render: Callable[[], str], host: str = "127.0.0.1",
                 port: int = 0,
                 health: Optional[Callable[[], object]] = None,
                 ready: Optional[Callable[[], bool]] = None):
        # Imported here, not at module level: http.server loads ssl,
        # http.client and email, which no process that never serves needs.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                if path == "/healthz":
                    self._respond_json(*server._health_payload())
                    return
                if path == "/ready":
                    self._respond_json(*server._ready_payload())
                    return
                if path not in ("/metrics", "/"):
                    self.send_error(404)
                    return
                try:
                    payload = server._render().encode("utf-8")
                except Exception as error:  # noqa: BLE001 - surface, don't die
                    self.send_error(500, str(error))
                    return
                self.send_response(200)
                self.send_header("Content-Type",
                                 "text/plain; version=0.0.4; charset=utf-8")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def _respond_json(self, status: int, payload: dict) -> None:
                body = (json.dumps(payload, indent=2, sort_keys=True)
                        + "\n").encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type",
                                 "application/json; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence per-request stderr spam
                pass

        self._render = render
        self._health = health
        self._ready = ready
        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-metrics-server",
                                        daemon=True)
        self._thread.start()

    def _health_payload(self) -> Tuple[int, dict]:
        from .. import __version__

        if self._health is None:
            return 200, {"status": "pass", "version": __version__,
                         "checks": []}
        try:
            report = self._health()
        except Exception as error:  # noqa: BLE001 - a probe must answer
            return 503, {"status": "fail", "version": __version__,
                         "error": f"{type(error).__name__}: {error}"}
        if hasattr(report, "as_dict"):
            payload = report.as_dict()
            passed = bool(getattr(report, "passed", payload.get("passed")))
        elif isinstance(report, dict):
            payload = dict(report)
            passed = bool(payload.get("passed"))
        else:
            passed = bool(report)
            payload = {"status": "pass" if passed else "fail"}
        payload.setdefault("status", "pass" if passed else "fail")
        payload["version"] = __version__
        return (200 if passed else 503), payload

    def _ready_payload(self) -> Tuple[int, dict]:
        from .. import __version__

        if self._ready is not None:
            try:
                ready = bool(self._ready())
            except Exception:  # noqa: BLE001 - a probe must answer
                ready = False
        else:
            try:
                self._render()
                ready = True
            except Exception:  # noqa: BLE001
                ready = False
        return (200 if ready else 503), {"ready": ready,
                                         "version": __version__}

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}/metrics"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
