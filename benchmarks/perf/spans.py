"""The driver-side span recorder of the traced run.

One span per call the harness makes into a layer's public function: name,
start, end, the span that was open when it started (its parent), the lap
it belongs to, and a key shared by every span of one trip. Spans are kept
in memory and written out as JSONL when the run ends. Nothing under
``src/`` is edited: nested layers are seen by wrapping public methods of
the *instances* the workload built (``SpanRecorder.wrap``).
"""

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Hashable, List, Optional

# Span fields, by list position (lists, not objects: a traced gateway lap
# records one span per GPS fix).
NAME, START, END, PARENT, LAP, KEY = range(6)

LAP_SPAN = "driver.lap"


def direct_call(name: str, key: Optional[Hashable], function: Callable,
                *args):
    """The untraced run's ``call``: the same signature, no recording."""
    return function(*args)


class SpanRecorder:
    """Records nested call spans; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self._wrapped: List[tuple] = []
        self.lap = -1

    def call(self, name: str, key: Optional[Hashable], function: Callable,
             *args):
        """Call ``function(*args)`` inside a span named ``name``."""
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1,
                self.lap, key]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            return function(*args)
        finally:
            span[END] = time.perf_counter()
            self._open.pop()

    def wrap(self, target: object, method: str, name: str) -> None:
        """Route ``target.method(...)`` through :meth:`call` from now on.

        An instance attribute shadows the class's method, so only this one
        object is traced; positional and keyword arguments pass through.
        """
        bound = getattr(target, method)

        def traced(*args, **kwargs):
            return self.call(name, None, lambda: bound(*args, **kwargs))

        setattr(target, method, traced)
        self._wrapped.append((target, method))

    def unwrap_all(self) -> None:
        """Remove every wrapper (the objects pickle and behave as built)."""
        for target, method in self._wrapped:
            delattr(target, method)
        self._wrapped = []

    # ------------------------------------------------------------ reductions
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        A span's self time is its duration minus the part its child spans
        cover (children never overlap: the driver is single-threaded).
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, span in enumerate(self.spans):
            entry = totals[span[NAME]]
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index]
        return dict(totals)

    def durations(self, name: str) -> List[float]:
        return [span[END] - span[START] for span in self.spans
                if span[NAME] == name]

    def coverage(self) -> float:
        """Share of the laps' wall time spent inside recorded call spans."""
        laps = self.totals().get(LAP_SPAN)
        if not laps or not laps["total_s"]:
            return 0.0
        return 1.0 - laps["self_s"] / laps["total_s"]

    def write_jsonl(self, path: Path, max_laps: int) -> int:
        """Write the spans of the first ``max_laps`` laps; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        written = 0
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span[LAP] >= max_laps:
                    continue
                handle.write(json.dumps({
                    "id": index, "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT],
                    "lap": span[LAP],
                    "key": None if span[KEY] is None else str(span[KEY]),
                }) + "\n")
                written += 1
        return written
