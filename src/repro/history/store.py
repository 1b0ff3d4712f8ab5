"""Versioned, immutable storage of the normal-route history.

RL4OASD's labels are anchored in per-SD-pair *history*: the set of past
trajectories of each (source, destination, time-slot) group, from which the
transition statistics and normal routes are derived. The paper's online
setting assumes that history evolves as new trajectories arrive — this
module makes that evolution a first-class, hot-swappable artifact instead of
frozen state buried inside a preprocessing pipeline:

* :class:`HistorySnapshot` — one immutable, versioned view of the history.
  A snapshot is the one grouping of trajectories by SD pair and time slot
  (``group`` / ``group_for`` / ``groups`` / ``sd_pairs`` / ``pair_sizes`` /
  ``__len__``) plus memoized derived-value caches (transition statistics,
  route tallies) keyed by the group they summarise, and answers keyed by
  trip (``trip_memo``), pure functions of the snapshot and therefore safe
  to share between every reader pinned to the same version. Serializing a
  snapshot strips those caches — a receiver recomputes identical values
  lazily.
* :class:`RouteHistoryStore` — the producer side: holds the *current*
  snapshot and mints new ones with monotonically increasing versions.
  :meth:`RouteHistoryStore.extend` is copy-on-write with structural
  sharing and costs what it appends: only the slot groups the new
  trajectories land in are reallocated, and what was derived from a group
  that grew is *extended* by the trajectories it grew by, never dropped;
  every other group tuple — and memo entry — is carried into the new
  snapshot by reference. :meth:`RouteHistoryStore.rebuild` replaces the
  history wholesale (still minting a fresh version), for daily roll-forward
  jobs that recompute the window from scratch.
* :class:`HistoryDelta` — the wire form of one copy-on-write refresh:
  the trajectories it appended, per slot group, keyed ``base_version →
  new_version``. :func:`apply_delta` reproduces the successor snapshot
  bit-identically on a receiver holding ``base_version`` (same group map,
  same iteration order, the receiver's own memo carried the same way), so
  a fleet-wide history refresh ships the new trips instead of the whole
  city. The store keeps a bounded log of recent deltas
  (:meth:`RouteHistoryStore.delta_chain`) and :func:`merge_deltas`
  concatenates a contiguous chain into one delta for receivers several
  versions behind.

Readers *pin* a snapshot by simply holding a reference: snapshots are never
mutated after construction (the memo caches only ever gain entries, and
only values that are pure functions of the snapshot's groups), so a detector or
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


def _segments_of(groups: Mapping[SDPair, Tuple[MatchedTrajectory, ...]]
                 ) -> FrozenSet[int]:
    """Every road segment the trajectories of ``groups`` travel."""
    return frozenset(segment
                     for group in groups.values()
                     for trajectory in group
                     for segment in trajectory.segments)


class HistoryDelta:
    """The serialized difference between two consecutive history versions.

    Carries *what was appended*: per slot group the refresh touched, the
    trajectories added at its end — nothing else — so its size, applying
    it and checking it cost the new trips, whatever the size of the groups
    they joined, and a chain of deltas composes by concatenation
    (:func:`merge_deltas`). ``slots_per_day`` rides along for validation:
    a delta is only meaningful against a snapshot with the same slotting.
    Instances are immutable and picklable; this is the payload a
    delta-aware history ``swap`` broadcasts instead of the whole snapshot.
    """

    __slots__ = ("base_version", "new_version", "slots_per_day", "appended")

    def __init__(
        self,
        base_version: int,
        new_version: int,
        slots_per_day: int,
        appended: Dict[SDPair, Tuple[MatchedTrajectory, ...]],
    ):
        if base_version < 1:
            raise LabelingError("a delta's base_version must be >= 1")
        if new_version <= base_version:
            raise LabelingError(
                f"a delta must advance the version (got {base_version} -> "
                f"{new_version})")
        if slots_per_day < 1:
            raise LabelingError("slots_per_day must be at least 1")
        if not all(appended.values()):
            raise LabelingError("a delta appends at least one trajectory to "
                                "every group it names")
        self.base_version = base_version
        self.new_version = new_version
        self.slots_per_day = slots_per_day
        self.appended = appended

    def segment_universe(self) -> FrozenSet[int]:
        """Every road segment the appended trajectories travel.

        The only segments a receiver gains over its base snapshot — which
        is why validating a delta-path refresh is O(delta), not O(corpus).
        """
        return _segments_of(self.appended)

    def __getstate__(self) -> dict:
        return {
            "base_version": self.base_version,
            "new_version": self.new_version,
            "slots_per_day": self.slots_per_day,
            "appended": self.appended,
        }

    def __setstate__(self, state: dict) -> None:
        self.base_version = state["base_version"]
        self.new_version = state["new_version"]
        self.slots_per_day = state["slots_per_day"]
        self.appended = state["appended"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HistoryDelta(v{self.base_version} -> v{self.new_version}, "
                f"{len(self.appended)} group(s))")


def merge_deltas(deltas: Sequence["HistoryDelta"]) -> "HistoryDelta":
    """Collapse a contiguous delta chain into one delta.

    Each delta carries what it appended, so the chain appends, per group,
    the concatenation in chain order (a group first named by a later delta
    keeps its later place in the group map). A gapped or out-of-order chain
    (delta *i+1* not based on delta *i*'s ``new_version``) is rejected.
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
    appended = dict(chain[0].appended)
    previous = chain[0]
    for delta in chain[1:]:
        if delta.slots_per_day != previous.slots_per_day:
            raise LabelingError(
                "cannot merge deltas with different slots_per_day")
        if delta.base_version != previous.new_version:
            raise LabelingError(
                f"delta chain is not contiguous: v{previous.new_version} is "
                f"followed by a delta based on v{delta.base_version}")
        for key, trajectories in delta.appended.items():
            appended[key] = appended.get(key, ()) + trajectories
        previous = delta
    return HistoryDelta(chain[0].base_version, previous.new_version,
                        chain[0].slots_per_day, appended)


def apply_delta(snapshot: "HistorySnapshot",
                delta: HistoryDelta) -> "HistorySnapshot":
    """Reproduce the successor snapshot from a base snapshot plus a delta.

    The receiver-side half of the delta control plane: given the snapshot
    at ``delta.base_version``, returns a snapshot identical to the one the
    producer's :meth:`HistorySnapshot.extended` minted — same group map
    (content *and* iteration order: surviving keys keep their position,
    new groups append in delta order, exactly as ``extended`` built them),
    with the receiver's own memo carried across the same way (entries of
    groups that grew extended by what the delta appends, every other by
    reference). A snapshot at any other version is rejected (the caller
    falls back to a full-snapshot swap), as is a slotting mismatch.
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
    return snapshot._appended(delta.appended, delta.new_version)


class HistorySnapshot:
    """One immutable, versioned view of the per-SD-pair route history.

    Construction is cheap for the structural-sharing path
    (:meth:`extended`): group tuples are carried by reference and the
    by-pair index gains only the slot groups that are new. The memoized
    derived-value caches are *not* part of the snapshot's identity — they
    hold pure functions of the snapshot's groups, keyed by the group
    (:meth:`resolved_key`), and are dropped on serialization.
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
        if not all(groups.values()):
            raise LabelingError("a history group holds at least one "
                                "trajectory")
        self._set(groups, slots_per_day, version)

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

    def _set(
        self,
        groups: Dict[SDPair, Tuple[MatchedTrajectory, ...]],
        slots_per_day: int,
        version: int,
        predecessor: Optional["HistorySnapshot"] = None,
        pair_slots: Optional[Dict[Tuple[int, int], Tuple[SDPair, ...]]] = None,
    ) -> None:
        """Every attribute a snapshot has, set in one place: from scratch
        (the constructor, unpickling), or as the successor of
        ``predecessor`` with its by-pair index already brought up to date
        (:meth:`_appended`, which then extends what it carries)."""
        self._groups = groups
        self._slots_per_day = slots_per_day
        self._version = version
        if pair_slots is None:
            # The slot groups of every SD pair, in group-map order: the
            # order the pair's history across all slots is read in.
            pair_slots = {}
            for key in groups:
                pair = (key.source, key.destination)
                pair_slots[pair] = pair_slots.get(pair, ()) + (key,)
        self._pair_slots = pair_slots
        # Memoized derived values (see cached_statistics / cached_routes),
        # and how many were [computed, extended] — one tally for a lineage.
        self._statistics_cache: Dict[Hashable, object] = (
            {} if predecessor is None else dict(predecessor._statistics_cache))
        self._routes_cache: Dict[Hashable, object] = (
            {} if predecessor is None else dict(predecessor._routes_cache))
        self._derived = [0, 0] if predecessor is None else predecessor._derived
        self._trip_memos: Dict[Hashable, dict] = {}  # never carried over
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
        if time_slot is not None:
            return list(self._groups.get((source, destination, time_slot), ()))
        return [trajectory
                for key in self._pair_slots.get((source, destination), ())
                for trajectory in self._groups[key]]

    def has_pair(self, source: int, destination: int) -> bool:
        """Whether the SD pair has any trajectory in any slot: one lookup,
        no group copied."""
        return (source, destination) in self._pair_slots

    def group_for(self, trajectory: MatchedTrajectory) -> List[MatchedTrajectory]:
        """The historical group a trajectory belongs to.

        Falls back to all time slots only when the trajectory's own slot
        has no history — how sparse SD pairs are handled in the cold-start
        study.
        """
        slot = time_slot_of(trajectory.start_time_s, self._slots_per_day)
        group = self.group(trajectory.source, trajectory.destination, slot)
        if group:
            return group
        return self.group(trajectory.source, trajectory.destination)

    def sd_pairs(self) -> List[Tuple[int, int]]:
        """All distinct (source, destination) pairs, ignoring time slots."""
        return sorted(self._pair_slots)

    def pair_sizes(self) -> Dict[Tuple[int, int], int]:
        return {pair: sum(len(self._groups[key]) for key in slots)
                for pair, slots in self._pair_slots.items()}

    def trajectories(self) -> Iterator[MatchedTrajectory]:
        """Every historical trajectory (group iteration order)."""
        for group in self._groups.values():
            yield from group

    def __len__(self) -> int:
        return sum(len(group) for group in self._groups.values())

    def segment_universe(self) -> FrozenSet[int]:
        """Every road segment any historical trajectory travels (lazy)."""
        if self._segments is None:
            self._segments = _segments_of(self._groups)
        return self._segments

    # ------------------------------------------------------- derived caching
    def resolved_key(self, source: int, destination: int, time_slot: int,
                     min_slot_group_size: int
                     ) -> Tuple[int, int, Optional[int]]:
        """The name of the group a trip of ``(source, destination)`` starting
        in ``time_slot`` is judged against — the memo key of what is derived
        from it.

        ``(source, destination, time_slot)`` when that slot holds at least
        ``min_slot_group_size`` trajectories; otherwise the per-hour
        statistics would be meaningless (a single historical trip would
        define "the" normal route) and it is ``(source, destination, None)``:
        the pair's history across all slots, one entry for all of its
        sparse slots. A key names a group and nothing else, so an append
        never makes the entry under it wrong — :meth:`extended` brings it up
        to date — and a slot that grows past the threshold simply resolves
        to its own key from then on. :meth:`runs` is empty for a pair with
        no history at all.
        """
        key = (source, destination, time_slot)
        if len(self._groups.get(key, ())) < min_slot_group_size:
            key = (source, destination, None)
        return key

    def runs(self, key: Tuple[int, int, Optional[int]]
             ) -> List[Tuple[int, int, Tuple[MatchedTrajectory, ...]]]:
        """The group ``key`` names as ``(slot_position, 0, trajectories)``
        runs: one slot group, or — slot ``None`` — every slot group of the
        pair in group-map order. Concatenated they are the group; a
        trajectory's ``(slot_position, index)`` is its place in it, which
        an append to any slot leaves as it was."""
        source, destination, time_slot = key
        return [(position, 0, self._groups[slot_key])
                for position, slot_key in enumerate(
                    self._pair_slots.get((source, destination), ()))
                if time_slot is None or slot_key.time_slot == time_slot]

    @property
    def derivations(self) -> Dict[str, int]:
        """How the memo values of this snapshot's lineage (it, its
        predecessors and successors by :meth:`extended` /
        :func:`apply_delta`) came to be: ``computed`` from a whole group on
        a miss, or ``extended`` across a refresh by what it appended. Memo
        hits count nothing."""
        return {"computed": self._derived[0], "extended": self._derived[1]}

    def cached_statistics(self, key: Hashable, compute: Callable[[], object]):
        """Memoize one derived transition-statistics value.

        ``key`` is the :meth:`resolved_key` of the group the value
        summarises, and the value a pure function of that group with an
        ``extended(added_trajectories)`` — what the copy-on-write refresh
        calls, instead of dropping the entry, when the group grows. Sharing
        the memo between every reader of this snapshot is therefore safe.
        ``compute`` returns ``None`` when there is nothing to store: a
        value that is *not* pure — the no-history fallback, derived from
        the query trajectory itself — does not belong here, its caller
        computes it from the query every time.
        """
        value = self._statistics_cache.get(key)
        if value is None:
            value = self._computed(self._statistics_cache, key, compute)
        return value

    def cached_routes(self, key: Hashable, compute: Callable[[], object]):
        """Memoize one derived route-tally value (same contract as above,
        except that the refresh calls ``extended(added_runs)``)."""
        value = self._routes_cache.get(key)
        if value is None:
            value = self._computed(self._routes_cache, key, compute)
        return value

    def trip_memo(self, reader: Hashable) -> Dict[Tuple[int, int, int], object]:
        """One reader's answers by trip key ``(source, destination, time
        slot)``; ``reader`` names what else they depend on. A successor
        starts with none, and serializing drops them."""
        return self._trip_memos.setdefault(reader, {})

    def _computed(self, cache: Dict[Hashable, object], key: Hashable,
                  compute: Callable[[], object]):
        value = compute()
        if value is not None:
            cache[key] = value
            self._derived[0] += 1
        return value

    # -------------------------------------------------------------- refresh
    def extended(self, new_trajectories: Sequence[MatchedTrajectory],
                 version: int) -> "HistorySnapshot":
        """A new snapshot with ``new_trajectories`` appended, copy-on-write.

        Costs what it appends. Only the slot groups the new trajectories
        land in are reallocated; every other group tuple is shared by
        reference with this snapshot. Every memoized derived value is
        carried forward: by reference when its group is unchanged, extended
        by the appended trajectories when it grew (a slot's own group, and
        the pair's across all slots) — nothing is derived again.

        What was appended doubles as the refresh's :class:`HistoryDelta`
        (:attr:`origin_delta` on the result), and a computed segment
        universe extends incrementally instead of being recomputed from
        the whole corpus.
        """
        appended = _group_trajectories(new_trajectories, self._slots_per_day)
        snapshot = self._appended(appended, version)
        if version > self._version:
            snapshot._origin_delta = HistoryDelta(
                self._version, version, self._slots_per_day, appended)
        return snapshot

    def _appended(
        self, appended: Mapping[SDPair, Tuple[MatchedTrajectory, ...]],
        version: int,
    ) -> "HistorySnapshot":
        """The successor both :meth:`extended` and :func:`apply_delta`
        mint: ``appended`` at the end of the slot groups it names."""
        groups = dict(self._groups)
        pair_slots = dict(self._pair_slots)
        # Memo key of every group that grew -> the runs it grew by.
        grown: Dict[Hashable, list] = {}
        for key, trajectories in appended.items():
            pair = (key.source, key.destination)
            slots = pair_slots.get(pair, ())
            before = groups.get(key)
            if before is None:
                before = ()
                position = len(slots)
                pair_slots[pair] = slots + (key,)
            else:  # the slot the pair holds at this key's time slot
                position = [slot.time_slot for slot in slots].index(
                    key.time_slot)
            groups[key] = before + trajectories
            run = (position, len(before), trajectories)
            grown[key.as_tuple()] = [run]
            grown.setdefault(pair + (None,), []).append(run)
        snapshot = HistorySnapshot.__new__(HistorySnapshot)
        snapshot._set(groups, self._slots_per_day, version,
                      predecessor=self, pair_slots=pair_slots)
        for key, runs in grown.items():
            statistics = self._statistics_cache.get(key)
            if statistics is not None:
                snapshot._statistics_cache[key] = statistics.extended(
                    trajectory for _, _, trajectories in runs
                    for trajectory in trajectories)
                self._derived[1] += 1
            tally = self._routes_cache.get(key)
            if tally is not None:
                snapshot._routes_cache[key] = tally.extended(runs)
                self._derived[1] += 1
        if self._segments is not None:
            snapshot._segments = self._segments | _segments_of(appended)
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
        self._set(state["groups"], state["slots_per_day"], state["version"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HistorySnapshot(version={self._version}, "
                f"pairs={len(self._pair_slots)}, trajectories={len(self)})")


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

        Copy-on-write: unchanged groups share structure with the previous
        snapshot, and what was derived from a group that grew is extended,
        not derived again. An empty extension is a no-op
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
        :meth:`DetectionService.swap`. The snapshot keeps its own
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

    This is the payload :meth:`DetectionService.swap` broadcasts to
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

    Proportional to the appended trajectories, not the corpus — the whole
    point of the delta control plane.
    """
    return pickle.dumps(delta, protocol=pickle.HIGHEST_PROTOCOL)


def delta_from_bytes(blob: bytes) -> HistoryDelta:
    """Rebuild a delta from :func:`delta_to_bytes` output."""
    delta = pickle.loads(blob)
    if not isinstance(delta, HistoryDelta):
        raise LabelingError("the blob does not contain a HistoryDelta")
    return delta
