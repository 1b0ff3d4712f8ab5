"""Sampled per-fix trace spans across the detection pipeline.

A :class:`TraceContext` is two numbers — a trace id and a monotonic
timestamp — that ride a sampled GPS fix through every pipeline hop as an
optional trailing field of the existing command tuples (``IngestEvent``,
``ResultEnvelope``). At each stage boundary the receiving
side *observes* the context: the elapsed time since the context was last
stamped lands in that stage's latency histogram, a :class:`Span` is
optionally kept for JSONL export, and the context is re-stamped for the
next hop.

Stage semantics (``STAGES``, in pipeline order):

``gateway_ingest``
    raw fix pushed into :class:`~repro.ingest.GpsGateway` → released from
    the per-vehicle reorder buffer.
``match_commit``
    the online map matcher's ``push`` call for the sampled fix, on the
    gateway caller's thread.
``shard_queue``
    ingest event created at the facade → dequeued by the shard worker
    (includes the gateway's batching wait — deliberately: that is the
    latency a fix actually experiences).
``engine_tick``
    segment handed to the shard's :class:`~repro.core.StreamEngine` → its
    label assigned by a batched tick (deferred streams accrue their
    buffering time here, since their points are only labeled at finalize).
``finalize``
    the ``finalize_many`` call that closed the sampled stream.
``bus_publish``
    result published on the shard's :class:`~repro.serve.ShardResultBus` →
    taken off it by the drain path.
``bus_drain``
    taken off the shard bus → accepted by the facade's
    :class:`~repro.serve.BusCollector`.

``timestamp()`` is :func:`time.perf_counter`, which on Linux is
``CLOCK_MONOTONIC`` — comparable across the facade and the shard worker
processes of one machine, so cross-process stage latencies are real.

The :class:`Tracer` is zero-cost when off: with ``sample_rate`` 0 (the
default) ``sample()`` returns ``None`` after one float comparison, no
object is allocated, and no downstream branch ever sees a context.
"""

from __future__ import annotations

import json
import random
import time
from typing import List, NamedTuple, Optional

from .registry import MetricsRegistry

__all__ = ["STAGES", "STAGE_LATENCY_METRIC", "Span", "TraceContext",
           "Tracer", "timestamp", "write_spans_jsonl"]

#: Pipeline stages in dataflow order.
STAGES = ("gateway_ingest", "match_commit", "shard_queue", "engine_tick",
          "finalize", "bus_publish", "bus_drain")

#: The one histogram family every stage observation lands in.
STAGE_LATENCY_METRIC = "repro_stage_latency_seconds"

#: Monotonic clock shared by every instrumentation site.
timestamp = time.perf_counter


class TraceContext(NamedTuple):
    """What rides the pipeline with a sampled fix. Picklable."""

    trace_id: int
    started_t: float


class Span(NamedTuple):
    """One recorded stage traversal (for the JSONL export)."""

    trace_id: int
    stage: str
    site: str
    start_t: float
    duration_s: float


class Tracer:
    """Samples trace contexts and records per-stage latency observations.

    One tracer lives on the service facade (it originates contexts) and
    one inside every shard worker (rate 0 — workers never originate, they
    only observe contexts that arrive on events). Each tracer writes to
    its own registry; the facade merges them on demand.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None, *,
                 sample_rate: float = 0.0, seed: int = 0x0B5,
                 site: str = "facade", keep_spans: bool = True,
                 max_spans: int = 10_000):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.site = site
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self._rate = float(sample_rate)
        self._keep_spans = keep_spans
        self._rng = random.Random(seed)
        self._next_id = 0
        self.sampled = 0
        self.span_overflow = 0

    @property
    def sample_rate(self) -> float:
        return self._rate

    def sample(self, now: float) -> Optional[TraceContext]:
        """A new trace context, or ``None`` (the overwhelmingly common
        answer). Rate 0 short-circuits before any allocation."""
        if not self._rate:
            return None
        if self._rate < 1.0 and self._rng.random() >= self._rate:
            return None
        self._next_id += 1
        self.sampled += 1
        return TraceContext(self._next_id, now)

    def observe(self, stage: str, trace: TraceContext,
                now: float) -> TraceContext:
        """Record ``now - trace.started_t`` against ``stage`` and return
        the context re-stamped at ``now`` for the next hop."""
        duration = now - trace.started_t
        self.registry.histogram(
            STAGE_LATENCY_METRIC, {"stage": stage},
            help="Per-stage latency of sampled fixes through the detection "
                 "pipeline").observe(duration)
        if self._keep_spans:
            if len(self.spans) < self.max_spans:
                self.spans.append(Span(trace.trace_id, stage, self.site,
                                       trace.started_t, duration))
            else:
                self.span_overflow += 1
        return TraceContext(trace.trace_id, now)

    def take_spans(self) -> List[Span]:
        """Drain and return the recorded spans."""
        spans, self.spans = self.spans, []
        return spans


def write_spans_jsonl(spans, path) -> int:
    """Write spans as JSON lines (one span per line) for offline analysis.

    Returns the number of spans written. Spans are sorted by
    ``(trace_id, start_t)`` so one fix's flame line reads top to bottom.
    """
    ordered = sorted(spans, key=lambda span: (span.trace_id, span.start_t))
    with open(path, "w", encoding="utf-8") as handle:
        for span in ordered:
            handle.write(json.dumps({
                "trace_id": span.trace_id,
                "stage": span.stage,
                "site": span.site,
                "start_t": span.start_t,
                "duration_s": span.duration_s,
            }) + "\n")
    return len(ordered)
