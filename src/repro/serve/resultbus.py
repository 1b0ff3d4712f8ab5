"""The at-least-once results bus between shard workers and the facade.

A synchronous ``finalize`` call pays one blocking command/reply round trip
per result — fine for a batch job, fatal for a
driver multiplexing thousands of sessions. The results bus inverts the
flow: shards *push* finished work and the facade drains it in batches::

    shard worker k                                facade
    ─────────────────────────                     ─────────────────────────
    finalize_async marker ──▶ engine.finalize_many
                                  │ DetectionResult(s)
                                  ▼
                     ShardResultBus.publish        BusCollector.offer
                       (seq = k's monotone         (per-shard watermark:
                        counter)                    seq <= watermark is a
                                  │                 duplicate, dropped)
                                  ▼                        ▲
                     take() ── one queue/IPC message ──────┘
                       per batch of envelopes; unacked until
                       ack(seq) ◀───────────── facade acks its watermark

Delivery is **at-least-once**: a shard retains every taken envelope until
the facade acknowledges its sequence number, and :meth:`ShardResultBus.
replay` re-queues the unacknowledged tail (after a facade restart, a lost
drain, or just for fault-injection tests). Exactly-once *processing* is
recovered subscriber-side: sequence numbers are per-shard monotone, so the
:class:`BusCollector`'s watermark drops every redelivered envelope, and —
because one vehicle's results always come from one shard — per-vehicle
result order is monotone too.

Two envelope kinds flow over the bus:

* ``"result"`` — one finalized stream; ``key`` is the vehicle id, the
  payload its :class:`~repro.core.detector.DetectionResult`.
* ``"error"`` — an async finalize that failed shard-side; ``key`` is the
  tuple of vehicle ids of the failed batch, the payload the exception. The
  facade raises it at the caller's next poll instead of silently losing
  the streams.

A batch that crosses a process boundary travels as one **frame**
(:func:`pack_frame` / :func:`unpack_frame`): a plain pickle of a list in
which a ``"result"`` envelope is the tuple ``(seq, vehicle_id,
trajectory_id, segments, start_time_s, labels, trace)`` — a stream's result
is its route and its labels, so the rest of the
:class:`~repro.core.detector.DetectionResult` is rebuilt on arrival by
:func:`~repro.core.detector.route_result`, the constructor the engine's own
finalize calls — and an ``"error"`` envelope is itself. The shard id is not
on the wire: the reader knows which shard's pipe it read.
"""

from __future__ import annotations

import pickle
from collections import deque
from typing import Deque, List, NamedTuple, Optional

from ..core.detector import route_result
from ..obs.trace import TraceContext, timestamp as obs_timestamp
from .metrics import BusStats


class ResultEnvelope(NamedTuple):
    """One published unit of finished work, stamped with its shard sequence."""

    shard_id: int
    seq: int
    kind: str       # "result" | "error"
    key: object     # vehicle id | tuple of vehicle ids
    payload: object
    #: Sampled trace context of the stream this envelope closes (``None``
    #: almost always). Stamped at publish, re-stamped at take, observed as
    #: ``bus_publish`` / ``bus_drain`` at those boundaries.
    trace: Optional[TraceContext] = None


def pack_frame(batch: List[ResultEnvelope]) -> bytes:
    """One taken batch as the bytes of one bus message (module docstring).

    A ``"result"`` payload is what :func:`~repro.core.detector.route_result`
    builds — everything an engine's finalize returns — so its route and
    labels are all the frame carries of it.
    """
    frame: list = []
    for envelope in batch:
        if envelope.kind == "result":
            result = envelope.payload
            trajectory = result.trajectory
            frame.append((envelope.seq, envelope.key,
                          trajectory.trajectory_id, trajectory.segments,
                          trajectory.start_time_s, result.labels,
                          envelope.trace))
        else:
            frame.append(envelope)
    return pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)


def unpack_frame(shard_id: int, data: bytes) -> List[ResultEnvelope]:
    """The envelopes of one frame read from shard ``shard_id``'s pipe."""
    envelopes: List[ResultEnvelope] = []
    for item in pickle.loads(data):
        if isinstance(item, ResultEnvelope):
            envelopes.append(item)
            continue
        seq, key, trajectory_id, segments, start_time_s, labels, trace = item
        envelopes.append(ResultEnvelope(
            shard_id, seq, "result", key,
            route_result(trajectory_id, segments, start_time_s, labels),
            trace))
    return envelopes


class ShardResultBus:
    """The publisher half: one per shard, colocated with its engine.

    Single-producer (the shard worker), single-consumer (whoever drains the
    shard's outbox toward the facade). ``publish`` stamps each envelope with
    the shard's monotone sequence number; ``take`` moves a batch from the
    outbox to the unacked retention window; ``ack`` trims the window;
    ``replay`` re-queues it in front of everything fresher. Sequence
    numbers are never reused, so however deliveries and replays interleave,
    the subscriber's watermark keeps acceptance exactly-once and in order.
    """

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self._next_seq = 1
        self._outbox: Deque[ResultEnvelope] = deque()
        self._unacked: Deque[ResultEnvelope] = deque()
        self._published = 0
        self._delivered = 0
        self._redelivered = 0
        self._acked_seq = 0
        #: Optional repro.obs.Tracer; when set, traced envelopes close
        #: their ``bus_publish`` span at :meth:`take`.
        self.tracer = None

    # --------------------------------------------------------------- publish
    def publish(self, kind: str, key, payload,
                trace: Optional[TraceContext] = None) -> int:
        """Append one envelope to the outbox; returns its sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        self._outbox.append(ResultEnvelope(self.shard_id, seq, kind, key,
                                           payload, trace))
        self._published += 1
        return seq

    # --------------------------------------------------------------- deliver
    def take(self, max_items: Optional[int] = None) -> List[ResultEnvelope]:
        """Pop a batch off the outbox into the unacked retention window.

        The batch is what rides one queue/IPC message toward the facade;
        nothing is forgotten until :meth:`ack` covers it. Traced envelopes
        close their ``bus_publish`` span here and leave re-stamped, so the
        facade's accept path measures ``bus_drain`` from this hop — a
        replayed envelope is re-stamped again, which is the honest reading
        (its drain latency restarts with the redelivery).
        """
        count = len(self._outbox)
        if max_items is not None:
            count = min(count, max_items)
        batch = [self._outbox.popleft() for _ in range(count)]
        if self.tracer is not None and any(e.trace is not None for e in batch):
            now = obs_timestamp()
            batch = [
                envelope if envelope.trace is None else envelope._replace(
                    trace=self.tracer.observe("bus_publish", envelope.trace,
                                              now))
                for envelope in batch]
        self._unacked.extend(batch)
        self._delivered += len(batch)
        return batch

    def ack(self, up_to_seq: int) -> None:
        """Forget every envelope with ``seq <= up_to_seq``.

        Also trims replayed duplicates still waiting in the outbox — any
        outbox envelope at or below the acknowledged watermark has, by
        sequence monotonicity, already been accepted by the subscriber.
        """
        while self._unacked and self._unacked[0].seq <= up_to_seq:
            self._unacked.popleft()
        while self._outbox and self._outbox[0].seq <= up_to_seq:
            self._outbox.popleft()
        if up_to_seq > self._acked_seq:
            self._acked_seq = up_to_seq

    def replay(self) -> int:
        """Re-queue the whole unacked window for redelivery; returns its size.

        The at-least-once lever: after a suspected lost delivery, everything
        taken-but-unacknowledged goes back in front of fresher envelopes
        (sequence order is preserved — unacked envelopes are always older
        than the outbox). The subscriber's watermark drops whatever had in
        fact arrived.
        """
        replayed = len(self._unacked)
        if replayed:
            self._unacked.extend(self._outbox)
            self._outbox = self._unacked
            self._unacked = deque()
            self._redelivered += replayed
        return replayed

    # --------------------------------------------------------------- inspect
    @property
    def depth(self) -> int:
        """Envelopes published but not yet taken."""
        return len(self._outbox)

    def stats(self) -> BusStats:
        return BusStats(
            shard_id=self.shard_id,
            published=self._published,
            delivered=self._delivered,
            redelivered=self._redelivered,
            acked_seq=self._acked_seq,
            depth=len(self._outbox),
            unacked=len(self._unacked),
        )


class BusCollector:
    """The subscriber half: per-shard watermark dedup at the facade.

    :meth:`offer` filters a drained batch down to the envelopes not seen
    before — at-least-once delivery in, exactly-once acceptance out. A gap
    (an accepted sequence number more than one above the watermark) is
    counted but not rejected: the bus's FIFO transports cannot reorder, so
    a nonzero ``gaps`` means an envelope was *lost*, which the fuzz suite
    pins at zero.
    """

    def __init__(self, num_shards: int):
        self._watermarks = [0] * num_shards
        self.received = 0
        self.accepted = 0
        self.duplicates = 0
        self.gaps = 0

    def watermark(self, shard_id: int) -> int:
        """Highest sequence number accepted from one shard so far."""
        return self._watermarks[shard_id]

    def offer(self, envelopes: List[ResultEnvelope]) -> List[ResultEnvelope]:
        """Accept the not-yet-seen envelopes of one drained batch, in order."""
        accepted: List[ResultEnvelope] = []
        watermarks = self._watermarks
        for envelope in envelopes:
            self.received += 1
            watermark = watermarks[envelope.shard_id]
            if envelope.seq <= watermark:
                self.duplicates += 1
                continue
            if envelope.seq > watermark + 1:
                self.gaps += envelope.seq - watermark - 1
            watermarks[envelope.shard_id] = envelope.seq
            accepted.append(envelope)
        self.accepted += len(accepted)
        return accepted
