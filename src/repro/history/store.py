"""Versioned, immutable storage of the normal-route history.

RL4OASD's labels are anchored in per-SD-pair *history*: the set of past
trajectories of each (source, destination, time-slot) group, from which the
transition statistics and normal routes are derived. The paper's online
setting assumes that history evolves as new trajectories arrive — this
module makes that evolution a first-class, hot-swappable artifact instead of
frozen state buried inside a preprocessing pipeline:

* :class:`HistorySnapshot` — one immutable, versioned view of the history.
  A snapshot exposes the same read API as
  :class:`~repro.trajectory.sdpairs.SDPairIndex` (``group`` / ``group_for``
  / ``groups`` / ``pair_sizes`` / ``__len__``) plus memoized derived-value
  caches (transition statistics, normal routes) that are pure functions of
  the snapshot and therefore safe to share between every reader pinned to
  the same version. Serializing a snapshot strips those caches — a receiver
  recomputes identical values lazily.
* :class:`RouteHistoryStore` — the producer side: holds the *current*
  snapshot and mints new ones with monotonically increasing versions.
  :meth:`RouteHistoryStore.extend` is copy-on-write with structural
  sharing: only the SD pairs touched by the new trajectories are
  reallocated (and only their cached derived values dropped); every other
  group tuple — and its memoized statistics — is carried into the new
  snapshot by reference. :meth:`RouteHistoryStore.rebuild` replaces the
  history wholesale (still minting a fresh version), for daily roll-forward
  jobs that recompute the window from scratch.
* :class:`HistoryDelta` — the wire form of one copy-on-write refresh:
  only the groups ``extended`` reallocated, keyed ``base_version →
  new_version``. :func:`apply_delta` reproduces the successor snapshot
  bit-identically on a receiver holding ``base_version`` (same group map,
  same iteration order, same carried caches), so a fleet-wide history
  refresh can ship kilobytes of touched pairs instead of the whole city.
  The store keeps a bounded log of recent deltas
  (:meth:`RouteHistoryStore.delta_chain`) and :func:`merge_deltas`
  collapses a contiguous chain into one delta for receivers several
  versions behind.

Readers *pin* a snapshot by simply holding a reference: snapshots are never
mutated after construction (the memo caches only ever gain entries, and
only values that are pure functions of the snapshot), so a detector or
stream engine that resolved features against version N keeps producing
version-N labels no matter how many refreshes the store mints afterwards.
"""

from __future__ import annotations

import pickle
from collections import deque
from typing import (Callable, Deque, Dict, FrozenSet, Hashable, Iterable,
                    Iterator, List, Mapping, Optional, Sequence, Tuple)

from ..exceptions import LabelingError
from ..trajectory.models import MatchedTrajectory, SDPair
from ..trajectory.sdpairs import time_slot_of


def _group_trajectories(
    trajectories: Iterable[MatchedTrajectory], slots_per_day: int
) -> Dict[SDPair, Tuple[MatchedTrajectory, ...]]:
    """Group trajectories into immutable per-(S, D, slot) tuples."""
    groups: Dict[SDPair, List[MatchedTrajectory]] = {}
    for trajectory in trajectories:
        key = SDPair(
            source=trajectory.source,
            destination=trajectory.destination,
            time_slot=time_slot_of(trajectory.start_time_s, slots_per_day),
        )
        groups.setdefault(key, []).append(trajectory)
    return {key: tuple(group) for key, group in groups.items()}


class HistoryDelta:
    """The serialized difference between two consecutive history versions.

    Carries the *full new value* of every group the refresh reallocated —
    nothing else — so applying it is a plain map update and a chain of
    deltas composes by overwrite (:func:`merge_deltas`). ``slots_per_day``
    rides along for validation: a delta is only meaningful against a
    snapshot with the same slotting. Instances are immutable and picklable;
    this is the payload a delta-aware ``swap_history`` broadcasts instead
    of the whole snapshot.
    """

    __slots__ = ("base_version", "new_version", "slots_per_day", "groups")

    def __init__(
        self,
        base_version: int,
        new_version: int,
        slots_per_day: int,
        groups: Dict[SDPair, Tuple[MatchedTrajectory, ...]],
    ):
        if base_version < 1:
            raise LabelingError("a delta's base_version must be >= 1")
        if new_version <= base_version:
            raise LabelingError(
                f"a delta must advance the version (got {base_version} -> "
                f"{new_version})")
        if slots_per_day < 1:
            raise LabelingError("slots_per_day must be at least 1")
        self.base_version = base_version
        self.new_version = new_version
        self.slots_per_day = slots_per_day
        self.groups = groups

    def segment_universe(self) -> FrozenSet[int]:
        """Every road segment the delta's groups travel.

        The only segments a receiver gains over its base snapshot — which
        is why validating a delta-path refresh is O(delta), not O(corpus).
        """
        return frozenset(
            segment
            for group in self.groups.values()
            for trajectory in group
            for segment in trajectory.segments)

    def __getstate__(self) -> dict:
        return {
            "base_version": self.base_version,
            "new_version": self.new_version,
            "slots_per_day": self.slots_per_day,
            "groups": self.groups,
        }

    def __setstate__(self, state: dict) -> None:
        self.base_version = state["base_version"]
        self.new_version = state["new_version"]
        self.slots_per_day = state["slots_per_day"]
        self.groups = state["groups"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HistoryDelta(v{self.base_version} -> v{self.new_version}, "
                f"{len(self.groups)} group(s))")


def merge_deltas(deltas: Sequence["HistoryDelta"]) -> "HistoryDelta":
    """Collapse a contiguous delta chain into one delta.

    Each delta's groups carry the full post-refresh value of the pairs it
    touched, so a later delta's entry supersedes an earlier one's — the
    merge is a plain overwrite. A gapped or out-of-order chain (delta *i+1*
    not based on delta *i*'s ``new_version``) is rejected.
    """
    chain = list(deltas)
    if not chain:
        raise LabelingError("cannot merge an empty delta chain")
    for delta in chain:
        if not isinstance(delta, HistoryDelta):
            raise LabelingError(
                f"expected a HistoryDelta, got {type(delta).__name__}")
    if len(chain) == 1:
        return chain[0]
    groups = dict(chain[0].groups)
    previous = chain[0]
    for delta in chain[1:]:
        if delta.slots_per_day != previous.slots_per_day:
            raise LabelingError(
                "cannot merge deltas with different slots_per_day")
        if delta.base_version != previous.new_version:
            raise LabelingError(
                f"delta chain is not contiguous: v{previous.new_version} is "
                f"followed by a delta based on v{delta.base_version}")
        groups.update(delta.groups)
        previous = delta
    return HistoryDelta(chain[0].base_version, previous.new_version,
                        chain[0].slots_per_day, groups)


def apply_delta(snapshot: "HistorySnapshot",
                delta: HistoryDelta) -> "HistorySnapshot":
    """Reproduce the successor snapshot from a base snapshot plus a delta.

    The receiver-side half of the delta control plane: given the snapshot
    at ``delta.base_version``, returns a snapshot identical to the one the
    producer's :meth:`HistorySnapshot.extended` minted — same group map
    (content *and* iteration order: surviving keys keep their position,
    new pairs append in delta order, exactly as ``extended`` built them),
    same carried-forward derived caches for untouched pairs. A snapshot at
    any other version is rejected (the caller falls back to a full-snapshot
    swap), as is a slotting mismatch.
    """
    if not isinstance(snapshot, HistorySnapshot):
        raise LabelingError(
            f"expected a HistorySnapshot, got {type(snapshot).__name__}")
    if not isinstance(delta, HistoryDelta):
        raise LabelingError(
            f"expected a HistoryDelta, got {type(delta).__name__}")
    if delta.slots_per_day != snapshot.slots_per_day:
        raise LabelingError(
            f"delta uses {delta.slots_per_day} time slots per day but the "
            f"snapshot uses {snapshot.slots_per_day}")
    if snapshot.version != delta.base_version:
        raise LabelingError(
            f"delta applies to history version {delta.base_version} but the "
            f"snapshot is at version {snapshot.version}")
    groups = dict(snapshot._groups)
    groups.update(delta.groups)
    successor = HistorySnapshot(groups, snapshot.slots_per_day,
                                delta.new_version)
    touched = {(key.source, key.destination) for key in delta.groups}
    successor._statistics_cache = {
        key: value for key, value in snapshot._statistics_cache.items()
        if (key[0], key[1]) not in touched}
    successor._routes_cache = {
        key: value for key, value in snapshot._routes_cache.items()
        if (key[0], key[1]) not in touched}
    if snapshot._segments is not None:
        successor._segments = snapshot._segments | delta.segment_universe()
    return successor


class HistorySnapshot:
    """One immutable, versioned view of the per-SD-pair route history.

    Construction is cheap for the structural-sharing path
    (:meth:`extended`): group tuples are carried by reference and the
    by-pair index is the only thing rebuilt. The memoized derived-value
    caches are *not* part of the snapshot's identity — they hold pure
    functions of the snapshot's data (plus the caller's config values baked
    into the cache key) and are dropped on serialization.
    """

    def __init__(
        self,
        groups: Dict[SDPair, Tuple[MatchedTrajectory, ...]],
        slots_per_day: int,
        version: int,
    ):
        if slots_per_day < 1:
            raise LabelingError("slots_per_day must be at least 1")
        if version < 1:
            raise LabelingError("a history snapshot's version must be >= 1")
        self._groups = groups
        self._slots_per_day = slots_per_day
        self._version = version
        self._rebuild_indexes()

    @classmethod
    def build(
        cls,
        trajectories: Iterable[MatchedTrajectory],
        slots_per_day: int = 24,
        version: int = 1,
    ) -> "HistorySnapshot":
        """A fresh snapshot indexing ``trajectories`` from scratch."""
        return cls(_group_trajectories(trajectories, slots_per_day),
                   slots_per_day, version)

    def _rebuild_indexes(self) -> None:
        by_pair: Dict[Tuple[int, int], List[MatchedTrajectory]] = {}
        for key, group in self._groups.items():
            by_pair.setdefault((key.source, key.destination),
                               []).extend(group)
        self._by_pair = {pair: tuple(group) for pair, group in by_pair.items()}
        # Memoized derived values; see cached_statistics / cached_routes.
        self._statistics_cache: Dict[Hashable, object] = {}
        self._routes_cache: Dict[Hashable, object] = {}
        self._segments: Optional[FrozenSet[int]] = None
        # Producer-side provenance: the delta that minted this snapshot
        # from its predecessor (set by ``extended``). Like the memo caches
        # it is not part of the snapshot's identity and not serialized.
        self._origin_delta: Optional[HistoryDelta] = None

    # --------------------------------------------------------------- identity
    @property
    def version(self) -> int:
        """Monotonically increasing within one :class:`RouteHistoryStore`."""
        return self._version

    @property
    def slots_per_day(self) -> int:
        return self._slots_per_day

    @property
    def origin_delta(self) -> Optional[HistoryDelta]:
        """The delta that minted this snapshot from its predecessor.

        Set by :meth:`extended` (and therefore by
        :meth:`RouteHistoryStore.extend`); ``None`` for snapshots built
        from scratch, rebuilt wholesale, or round-tripped through
        serialization — provenance never travels, only data does.
        """
        return self._origin_delta

    # -------------------------------------------------------------- read API
    def groups(self) -> Mapping[SDPair, Tuple[MatchedTrajectory, ...]]:
        return self._groups

    def group(self, source: int, destination: int,
              time_slot: Optional[int] = None) -> List[MatchedTrajectory]:
        """Trajectories of an SD pair, optionally restricted to one slot."""
        if time_slot is None:
            return list(self._by_pair.get((source, destination), ()))
        key = SDPair(source=source, destination=destination,
                     time_slot=time_slot)
        return list(self._groups.get(key, ()))

    def has_pair(self, source: int, destination: int) -> bool:
        """Whether the SD pair has any trajectory in any slot: one lookup,
        no group copied."""
        return bool(self._by_pair.get((source, destination)))

    def group_for(self, trajectory: MatchedTrajectory) -> List[MatchedTrajectory]:
        """The historical group a trajectory belongs to.

        Mirrors :meth:`SDPairIndex.group_for` exactly (fall back to all time
        slots only when the trajectory's own slot has no history), so
        baselines that consulted the index keep their behaviour.
        """
        slot = time_slot_of(trajectory.start_time_s, self._slots_per_day)
        group = self.group(trajectory.source, trajectory.destination, slot)
        if group:
            return group
        return self.group(trajectory.source, trajectory.destination)

    def sd_pairs(self) -> List[Tuple[int, int]]:
        """All distinct (source, destination) pairs, ignoring time slots."""
        return sorted(self._by_pair)

    def pair_sizes(self) -> Dict[Tuple[int, int], int]:
        return {pair: len(group) for pair, group in self._by_pair.items()}

    def trajectories(self) -> Iterator[MatchedTrajectory]:
        """Every historical trajectory (group iteration order)."""
        for group in self._groups.values():
            yield from group

    def __len__(self) -> int:
        return sum(len(group) for group in self._by_pair.values())

    def segment_universe(self) -> FrozenSet[int]:
        """Every road segment any historical trajectory travels (lazy)."""
        if self._segments is None:
            self._segments = frozenset(
                segment
                for group in self._groups.values()
                for trajectory in group
                for segment in trajectory.segments)
        return self._segments

    # ------------------------------------------------------- derived caching
    def cached_statistics(self, key: Hashable, compute: Callable[[], object]):
        """Memoize one derived transition-statistics value.

        ``key`` must start with ``(source, destination, ...)`` — the
        copy-on-write refresh drops exactly the entries whose leading pair
        was touched. Values must be pure functions of the snapshot (plus
        whatever config values the caller bakes into the key), so sharing
        the memo between every reader of this snapshot is safe. A value that
        is *not* pure — the no-history fallback, derived from the query
        trajectory itself — does not belong here: its caller computes it
        from the query every time.
        """
        value = self._statistics_cache.get(key)
        if value is None:
            value = compute()
            self._statistics_cache[key] = value
        return value

    def cached_routes(self, key: Hashable, compute: Callable[[], object]):
        """Memoize one derived normal-routes value (same contract as above)."""
        value = self._routes_cache.get(key)
        if value is None:
            value = compute()
            self._routes_cache[key] = value
        return value

    # -------------------------------------------------------------- refresh
    def extended(self, new_trajectories: Sequence[MatchedTrajectory],
                 version: int) -> "HistorySnapshot":
        """A new snapshot with ``new_trajectories`` appended, copy-on-write.

        Only the SD pairs the new trajectories touch are reallocated; every
        other group tuple is shared by reference with this snapshot, and the
        memoized derived values of untouched pairs are carried forward (a
        refresh that adds one pair's trajectories re-derives one pair's
        statistics, not the whole city's). *All* slots of a touched pair are
        invalidated, because the sparse-slot fallback makes a slot's derived
        values depend on the pair's full cross-slot history.

        The reallocated groups double as the refresh's
        :class:`HistoryDelta` (:attr:`origin_delta` on the result), and a
        computed segment universe extends incrementally instead of being
        recomputed from the whole corpus.
        """
        additions = _group_trajectories(new_trajectories, self._slots_per_day)
        groups = dict(self._groups)
        delta_groups: Dict[SDPair, Tuple[MatchedTrajectory, ...]] = {}
        for key, group in additions.items():
            merged = groups.get(key, ()) + group
            groups[key] = merged
            delta_groups[key] = merged
        snapshot = HistorySnapshot(groups, self._slots_per_day, version)
        touched = {(key.source, key.destination) for key in additions}
        snapshot._statistics_cache = {
            key: value for key, value in self._statistics_cache.items()
            if (key[0], key[1]) not in touched}
        snapshot._routes_cache = {
            key: value for key, value in self._routes_cache.items()
            if (key[0], key[1]) not in touched}
        if self._segments is not None:
            snapshot._segments = self._segments | frozenset(
                segment
                for trajectory in new_trajectories
                for segment in trajectory.segments)
        if version > self._version:
            snapshot._origin_delta = HistoryDelta(
                self._version, version, self._slots_per_day, delta_groups)
        return snapshot

    # -------------------------------------------------------- serialization
    def __getstate__(self) -> dict:
        # The memo caches are recomputable, so a serialized snapshot is just
        # the versioned group data.
        return {
            "version": self._version,
            "slots_per_day": self._slots_per_day,
            "groups": self._groups,
        }

    def __setstate__(self, state: dict) -> None:
        self._version = state["version"]
        self._slots_per_day = state["slots_per_day"]
        self._groups = state["groups"]
        self._rebuild_indexes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HistorySnapshot(version={self._version}, "
                f"pairs={len(self._by_pair)}, trajectories={len(self)})")


class RouteHistoryStore:
    """Producer of versioned :class:`HistorySnapshot`\\ s.

    The store owns the version counter and the notion of "current"; readers
    never talk to the store on the hot path — they pin a snapshot and keep
    it until their own quiesce point (a stream's ``finalize``). Producers
    call :meth:`extend` as new trajectories arrive (copy-on-write refresh)
    or :meth:`rebuild` to replace the window wholesale; both mint a new
    immutable snapshot and advance ``current``.
    """

    #: Recent deltas retained for :meth:`delta_chain` (per store).
    MAX_DELTAS = 64

    def __init__(self, trajectories: Iterable[MatchedTrajectory] = (),
                 slots_per_day: int = 24):
        self._current = HistorySnapshot.build(trajectories, slots_per_day,
                                              version=1)
        self._deltas: Deque[HistoryDelta] = deque(maxlen=self.MAX_DELTAS)
        self.extends = 0
        self.rebuilds = 0

    @classmethod
    def from_snapshot(cls, snapshot: HistorySnapshot) -> "RouteHistoryStore":
        """A store whose current snapshot (and version) is ``snapshot``."""
        if not isinstance(snapshot, HistorySnapshot):
            raise LabelingError(
                f"expected a HistorySnapshot, got {type(snapshot).__name__}")
        store = cls.__new__(cls)
        store._current = snapshot
        store._deltas = deque(maxlen=cls.MAX_DELTAS)
        store.extends = 0
        store.rebuilds = 0
        return store

    # ------------------------------------------------------------ properties
    @property
    def version(self) -> int:
        return self._current.version

    @property
    def slots_per_day(self) -> int:
        return self._current.slots_per_day

    def current(self) -> HistorySnapshot:
        """The newest snapshot (readers pin it by holding the reference)."""
        return self._current

    # -------------------------------------------------------------- refresh
    def extend(self, new_trajectories: Sequence[MatchedTrajectory]
               ) -> HistorySnapshot:
        """Mint the next version with ``new_trajectories`` appended.

        Copy-on-write: untouched SD pairs share structure (and derived
        caches) with the previous snapshot. An empty extension is a no-op
        returning the current snapshot unchanged — no version is burned.
        """
        if not new_trajectories:
            return self._current
        self._current = self._current.extended(new_trajectories,
                                               self._current.version + 1)
        if self._current.origin_delta is not None:
            self._deltas.append(self._current.origin_delta)
        self.extends += 1
        return self._current

    def rebuild(self, trajectories: Iterable[MatchedTrajectory]
                ) -> HistorySnapshot:
        """Mint the next version from scratch (e.g. a rolled-forward window).

        A rebuild has no delta form — the log is cleared, so the next
        publish after a roll-forward is a full-snapshot swap by design.
        """
        self._current = HistorySnapshot.build(
            trajectories, self._current.slots_per_day,
            version=self._current.version + 1)
        self._deltas.clear()
        self.rebuilds += 1
        return self._current

    def adopt(self, snapshot: HistorySnapshot) -> HistorySnapshot:
        """Make an externally produced snapshot this store's current one.

        Used when a consumer-side store (a stream engine's pipeline) is
        handed a snapshot minted elsewhere — e.g. broadcast by
        :meth:`DetectionService.swap_history`. The snapshot keeps its own
        version; later :meth:`extend` calls continue counting from it.
        """
        if not isinstance(snapshot, HistorySnapshot):
            raise LabelingError(
                f"expected a HistorySnapshot, got {type(snapshot).__name__}")
        if snapshot.slots_per_day != self._current.slots_per_day:
            raise LabelingError(
                f"cannot adopt a snapshot with {snapshot.slots_per_day} time "
                f"slots per day into a store using "
                f"{self._current.slots_per_day}")
        delta = snapshot.origin_delta
        if delta is not None and delta.base_version == self._current.version:
            # The adopted snapshot chains off our current one — keep the
            # delta log continuous so downstream publishes stay cheap.
            self._deltas.append(delta)
        else:
            # Continuity from older versions to this snapshot cannot be
            # certified; drop the log rather than serve a wrong chain.
            self._deltas.clear()
        self._current = snapshot
        return self._current

    # --------------------------------------------------------------- deltas
    def delta_chain(self, base_version: int,
                    target_version: Optional[int] = None
                    ) -> Optional[List[HistoryDelta]]:
        """The contiguous deltas taking ``base_version`` to a target version.

        ``target_version`` defaults to the current version. Returns the
        chain oldest-first, or ``None`` when the store cannot certify one:
        the base is not strictly older than the target, the needed deltas
        have aged out of the bounded log, or a :meth:`rebuild` / foreign
        :meth:`adopt` broke continuity. Callers fall back to shipping the
        full snapshot — ``None`` is a routine answer, not an error.
        """
        target = self.version if target_version is None else target_version
        if base_version >= target:
            return None
        chain: List[HistoryDelta] = []
        want = base_version
        for delta in self._deltas:
            if delta.new_version <= base_version:
                continue
            if delta.base_version != want:
                return None
            chain.append(delta)
            want = delta.new_version
            if want == target:
                return chain
        return None


def snapshot_to_bytes(snapshot: HistorySnapshot) -> bytes:
    """Serialize a snapshot (memo caches stripped) to a byte blob.

    This is the payload :meth:`DetectionService.swap_history` broadcasts to
    worker shards, and the clone mechanism that keeps in-process shards from
    sharing one mutable memo.
    """
    return pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)


def snapshot_from_bytes(blob: bytes) -> HistorySnapshot:
    """Rebuild a snapshot from :func:`snapshot_to_bytes` output."""
    snapshot = pickle.loads(blob)
    if not isinstance(snapshot, HistorySnapshot):
        raise LabelingError("the blob does not contain a HistorySnapshot")
    return snapshot


def clone_snapshot(snapshot: HistorySnapshot) -> HistorySnapshot:
    """A deep, independent copy (serialize/deserialize round trip).

    The clone shares no mutable state — in particular no memo caches — with
    the original, so handing one to each in-process shard keeps shard
    engines exactly as isolated as the multi-process backend's pickling
    would.
    """
    return snapshot_from_bytes(snapshot_to_bytes(snapshot))


def delta_to_bytes(delta: HistoryDelta) -> bytes:
    """Serialize a delta to the byte blob a delta-path swap broadcasts.

    Proportional to the touched groups, not the corpus — the whole point
    of the delta control plane.
    """
    return pickle.dumps(delta, protocol=pickle.HIGHEST_PROTOCOL)


def delta_from_bytes(blob: bytes) -> HistoryDelta:
    """Rebuild a delta from :func:`delta_to_bytes` output."""
    delta = pickle.loads(blob)
    if not isinstance(delta, HistoryDelta):
        raise LabelingError("the blob does not contain a HistoryDelta")
    return delta


def clone_delta(delta: HistoryDelta) -> HistoryDelta:
    """A deep, independent copy of a delta (serialize round trip).

    The in-process backend's isolation primitive for the delta path: the
    caller's trajectory objects riding in the delta never alias serving
    state, mirroring what :func:`clone_snapshot` does for full swaps.
    """
    return delta_from_bytes(delta_to_bytes(delta))
