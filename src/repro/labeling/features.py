"""The preprocessing pipeline bundling vocabulary, noisy labels and NRFs."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..config import LabelingConfig
from ..exceptions import LabelingError
from ..history import HistorySnapshot, RouteHistoryStore
from ..roadnet.graph import RoadNetwork
from ..trajectory.models import MatchedTrajectory
from ..trajectory.sdpairs import time_slot_of
from .noisy import labels_from_fractions
from .normal_routes import (RouteTally, normal_transitions,
                            transition_features)
from .transitions import TransitionStatistics


class SegmentVocabulary:
    """Maps road segment ids to contiguous token indices for embedding lookups."""

    def __init__(self, segment_ids: Iterable[int]):
        ordered = sorted(set(segment_ids))
        if not ordered:
            raise LabelingError("the segment vocabulary must not be empty")
        self._segment_to_token: Dict[int, int] = {
            segment: token for token, segment in enumerate(ordered)
        }
        self._token_to_segment: List[int] = ordered

    @classmethod
    def from_network(cls, network: RoadNetwork) -> "SegmentVocabulary":
        return cls(network.segment_ids())

    def __len__(self) -> int:
        return len(self._token_to_segment)

    @property
    def segment_tokens(self) -> Mapping[int, int]:
        """``segment id -> token``, read-only (:meth:`token` raises)."""
        return MappingProxyType(self._segment_to_token)

    def token(self, segment_id: int) -> int:
        try:
            return self._segment_to_token[segment_id]
        except KeyError:
            raise LabelingError(f"segment {segment_id} not in vocabulary") from None

    def segment(self, token: int) -> int:
        if not (0 <= token < len(self._token_to_segment)):
            raise LabelingError(f"token {token} out of range")
        return self._token_to_segment[token]

    def tokens(self, segments: Sequence[int]) -> List[int]:
        try:
            return list(map(self._segment_to_token.__getitem__, segments))
        except KeyError:  # the first unknown segment raises, named
            return [self.token(segment) for segment in segments]

    def ordered_segments(self) -> List[int]:
        return list(self._token_to_segment)


@dataclass
class PreprocessedTrajectory:
    """Everything the networks need to know about one trajectory.

    Tokens and normal route features are resolved by
    :meth:`PreprocessingPipeline.preprocess`. The transition fractions and
    the noisy labels derived from them are resolved on first read, against
    the snapshot ``preprocess`` resolved the rest against: a reader that
    never asks for them (the RL path of training reads tokens and NRF only)
    derives no transition statistics, and a later history refresh does not
    change what it would read.
    """

    trajectory: MatchedTrajectory
    tokens: List[int]
    normal_route_features: List[int]
    pipeline: "PreprocessingPipeline" = field(repr=False)
    history: HistorySnapshot = field(repr=False)

    @cached_property
    def transition_fractions(self) -> List[float]:
        statistics = self.pipeline.statistics_for(self.trajectory, self.history)
        return statistics.fraction_sequence(self.trajectory.segments)

    @cached_property
    def noisy_labels(self) -> List[int]:
        return labels_from_fractions(self.transition_fractions,
                                     self.pipeline.config.alpha)

    def __len__(self) -> int:
        return len(self.tokens)


class PreprocessingPipeline:
    """Computes noisy labels and normal route features against historical data.

    The pipeline is a thin *view* over a versioned
    :class:`~repro.history.HistorySnapshot`: the per-SD-pair trajectory
    history (and the memoized transition statistics / normal routes derived
    from it) lives in the snapshot, which the pipeline pins. Both the
    detector (online) and the trainer reuse the same pipeline; fleet
    consumers (stream engines, the detection service) additionally pin the
    snapshot per stream so a hot refresh (:meth:`load_history`) never
    changes the labels of a trip already in flight.

    Construct from raw ``historical`` trajectories (a
    :class:`~repro.history.RouteHistoryStore` is created internally) or from
    an existing snapshot/store via ``history=``.
    """

    #: :meth:`token_degrees`, built on first use. Derived from the network,
    #: so never serialized: a copy looks its own up.
    _degrees: Optional[Tuple[List[int], List[int]]] = None

    def __init__(
        self,
        network: RoadNetwork,
        historical: Optional[Sequence[MatchedTrajectory]] = None,
        config: Optional[LabelingConfig] = None,
        history: Optional[Union[HistorySnapshot, RouteHistoryStore]] = None,
    ):
        self._config = (config or LabelingConfig()).validate()
        self._network = network
        self._vocabulary = SegmentVocabulary.from_network(network)
        if history is None:
            history = RouteHistoryStore(
                historical or (), self._config.time_slots_per_day)
        elif historical:
            raise LabelingError(
                "pass either historical trajectories or history=, not both")
        self._pin(history)

    def _pin(self, history: Union[HistorySnapshot, RouteHistoryStore]) -> None:
        if isinstance(history, RouteHistoryStore):
            self._store = history
        elif isinstance(history, HistorySnapshot):
            self._store = RouteHistoryStore.from_snapshot(history)
        else:
            raise LabelingError(
                "history must be a HistorySnapshot or a RouteHistoryStore, "
                f"got {type(history).__name__}")
        if self._store.slots_per_day != self._config.time_slots_per_day:
            raise LabelingError(
                f"the history uses {self._store.slots_per_day} time slots per "
                f"day but the labeling config expects "
                f"{self._config.time_slots_per_day}")
        self._snapshot = self._store.current()

    # ---------------------------------------------------------------- access
    @property
    def config(self) -> LabelingConfig:
        return self._config

    @property
    def vocabulary(self) -> SegmentVocabulary:
        return self._vocabulary

    @property
    def network(self) -> RoadNetwork:
        return self._network

    def token_degrees(self) -> Tuple[List[int], List[int]]:
        """``(in_degrees, out_degrees)`` of every road segment, by token.

        RNEL's inputs, looked up here — where vocabulary and network meet —
        once per pipeline, so no consumer asks the network per point.
        """
        if self._degrees is None:
            ordered = self._vocabulary.ordered_segments()
            self._degrees = (
                [self._network.in_degree(segment) for segment in ordered],
                [self._network.out_degree(segment) for segment in ordered])
        return self._degrees

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_degrees", None)
        return state

    @property
    def history(self) -> HistorySnapshot:
        """The snapshot this pipeline currently resolves features against."""
        return self._snapshot

    @property
    def store(self) -> RouteHistoryStore:
        """The store producing this pipeline's snapshots (version counter)."""
        return self._store

    # ------------------------------------------------------------- refresh
    def load_history(self, snapshot: HistorySnapshot) -> HistorySnapshot:
        """Atomically repin this pipeline to ``snapshot``.

        Every *later* feature resolution uses the new history; resolutions
        that already happened (and callers still holding the old snapshot,
        like a stream engine's in-flight streams) are untouched — snapshots
        are immutable, so the old version keeps answering exactly as before
        until its last reader lets go of it.
        """
        self._store.adopt(snapshot)
        return self._repin()

    def _repin(self) -> HistorySnapshot:
        self._snapshot = self._store.current()
        return self._snapshot

    def extend_history(self, trajectories: Sequence[MatchedTrajectory]
                       ) -> HistorySnapshot:
        """Add newly observed trajectories to the history (new version).

        Used by the online-learning strategy: when new data arrives, the
        normal-route statistics shift with it (concept drift). The refresh
        is copy-on-write and costs what it appends — what was derived from
        a group the new trajectories join is extended by them; everything
        else is shared with the previous snapshot.
        Returns the new snapshot (publish it to running services with
        :meth:`DetectionService.swap`).
        """
        self._store.extend(trajectories)
        return self._repin()

    def with_history(self, history: Union[HistorySnapshot, RouteHistoryStore]
                     ) -> "PreprocessingPipeline":
        """A sibling pipeline pinned to ``history``.

        Shares the (immutable) network, vocabulary and config with this
        pipeline — building the view costs nothing beyond the store wrapper,
        which is what makes "a service freshly built from snapshot S"
        expressible without re-indexing anything.
        """
        view = PreprocessingPipeline.__new__(PreprocessingPipeline)
        view._config = self._config
        view._network = self._network
        view._vocabulary = self._vocabulary
        view._degrees = self._degrees
        view._pin(history)
        return view

    # ------------------------------------------------------------- internals
    def _slot_of(self, start_time_s: float) -> int:
        return time_slot_of(start_time_s, self._config.time_slots_per_day)

    def sd_group(self, source: int, destination: int,
                 start_time_s: float = 0.0,
                 history: Optional[HistorySnapshot] = None
                 ) -> List[MatchedTrajectory]:
        """The historical group of an SD pair (possibly empty).

        Applies the same sparse-slot fallback as preprocessing, but *not* the
        final fallback to the query trajectory itself: an empty result means
        the pair has no history at all (:meth:`HistorySnapshot.has_pair`
        tells that without copying a group). Pass ``history`` to resolve
        against a pinned snapshot instead of the pipeline's current one.
        """
        snapshot, key = self._memo_entry(source, destination, start_time_s,
                                         history)
        return snapshot.group(*key)

    def _memo_entry(self, source: int, destination: int, start_time_s: float,
                    history: Optional[HistorySnapshot]):
        """Where what derives from an SD pair's group is memoized: the
        snapshot and the group's :meth:`HistorySnapshot.resolved_key` (the
        sparse-slot fallback of :meth:`sd_group`), no group materialised."""
        snapshot = history if history is not None else self._snapshot
        return snapshot, snapshot.resolved_key(
            source, destination, self._slot_of(start_time_s),
            self._config.min_slot_group_size)

    def _route_tally(self, source: int, destination: int,
                     start_time_s: float, history: Optional[HistorySnapshot]
                     ) -> Optional[RouteTally]:
        """The route tally of the pair's group (cached); ``None`` for an SD
        pair with no history at all (see :meth:`statistics_for`)."""
        snapshot, key = self._memo_entry(source, destination, start_time_s,
                                         history)
        return snapshot.cached_routes(
            key, lambda: (RouteTally(snapshot.runs(key))
                          if snapshot.has_pair(source, destination) else None))

    def statistics_for(self, trajectory: MatchedTrajectory,
                       history: Optional[HistorySnapshot] = None
                       ) -> TransitionStatistics:
        """Transition statistics of the trajectory's SD-pair group (cached).

        An SD pair with no history at all falls back to the trajectory
        itself so statistics are still defined (everything looks normal,
        which is the conservative choice). What derives from that group is
        computed on every call and never stored: a stored value would judge
        the pair's next trip against this trip's route.
        """
        snapshot, key = self._memo_entry(
            trajectory.source, trajectory.destination,
            trajectory.start_time_s, history)
        statistics = snapshot.cached_statistics(
            key, lambda: (TransitionStatistics.from_group(snapshot.group(*key))
                          if snapshot.has_pair(key[0], key[1]) else None))
        if statistics is None:
            return TransitionStatistics.from_group([trajectory])
        return statistics

    def normal_routes_for(self, trajectory: MatchedTrajectory,
                          history: Optional[HistorySnapshot] = None
                          ) -> List[Tuple[int, ...]]:
        """Inferred normal routes of the trajectory's SD-pair group (cached)."""
        tally = self._route_tally(trajectory.source, trajectory.destination,
                                  trajectory.start_time_s, history)
        if tally is None:
            return [trajectory.route_key()]  # its own route is the normal one
        return tally.normal_routes(self._config.delta)

    def pair_transitions(self, source: int, destination: int,
                         start_time_s: float = 0.0,
                         history: Optional[HistorySnapshot] = None
                         ) -> Optional[FrozenSet[Tuple[int, int]]]:
        """:meth:`normal_transitions_for` of a trip from ``source`` to
        ``destination`` by the SD key alone (what an opening stream knows);
        ``None`` for a pair with no history: its fallback needs the route.
        One lookup in the snapshot's ``trip_memo``, filled by a key's first
        trip (pairs with history only)."""
        snapshot = history if history is not None else self._snapshot
        config = self._config
        key = (source, destination,
               time_slot_of(start_time_s, config.time_slots_per_day))
        memo = snapshot.trip_memo((config.min_slot_group_size, config.delta))
        transitions = memo.get(key)
        if transitions is None:
            tally = self._route_tally(source, destination, start_time_s,
                                      snapshot)
            if tally is None:
                return None
            transitions = memo[key] = tally.normal_transitions(config.delta)
        return transitions

    def normal_transitions_for(self, trajectory: MatchedTrajectory,
                               history: Optional[HistorySnapshot] = None
                               ) -> FrozenSet[Tuple[int, int]]:
        """The segment transitions on those normal routes (cached).

        The membership set behind the normal route feature, built once per
        group and snapshot instead of once per trip, and immutable because
        every detector and stream of the group shares it. It is read from
        the tally the routes are read from, so the same refresh brings both
        up to date.
        """
        transitions = self.pair_transitions(
            trajectory.source, trajectory.destination,
            trajectory.start_time_s, history)
        if transitions is None:
            return frozenset(normal_transitions([trajectory.route_key()]))
        return transitions

    # ------------------------------------------------------------ public API
    def preprocess(self, trajectory: MatchedTrajectory,
                   history: Optional[HistorySnapshot] = None
                   ) -> PreprocessedTrajectory:
        """Tokens and NRFs of one trajectory, and its fractions and noisy
        labels on first read — all against ``history`` (default: the
        pipeline's current snapshot, pinned now)."""
        if history is None:
            history = self._snapshot
        return PreprocessedTrajectory(
            trajectory=trajectory,
            tokens=self._vocabulary.tokens(trajectory.segments),
            normal_route_features=transition_features(
                trajectory.segments,
                self.normal_transitions_for(trajectory, history)),
            pipeline=self,
            history=history,
        )
