"""Raw-GPS ingest: the streaming gateway in front of the detection service.

This package closes the last gap between the reproduction and the paper's
deployment scenario: where :mod:`repro.serve` starts from map-matched road
segments, :class:`GpsGateway` starts from what a fleet actually produces —
noisy raw GPS fixes arriving point by point, out of order, duplicated, with
long gaps between trips — and feeds the
:class:`~repro.serve.service.DetectionService` through per-vehicle online
incremental map matching
(:class:`~repro.mapmatching.online.OnlineMapMatcher`).

* :class:`GpsGateway` — reorder buffer, duplicate/late drops, time-gap trip
  sessions, wall-clock session timeouts (``advance_clock``), bounded
  per-vehicle state with least-recently-active eviction, online matching,
  batched service ingest, funnel metrics.
* :class:`SessionResult` — one finished trip session (detection result plus
  matching summary and a map-matching confidence score), which comes back
  over the service's results bus from the call that closed the session or
  a later poll.
* :func:`serve_raw_fleet` — replay raw-trajectory workloads through a
  gateway (the differential-test and replay driver).

Every fix is matched in one place, the gateway's own
:class:`~repro.mapmatching.online.OnlineMapMatcher`; the shards see only
committed segments (``docs/architecture.md``, "why there is one placement").
"""

from .gateway import GpsGateway, SessionResult, serve_raw_fleet

__all__ = [
    "GpsGateway",
    "SessionResult",
    "serve_raw_fleet",
]
