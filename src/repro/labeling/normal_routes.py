"""Normal route inference and normal route features (NRF)."""

from __future__ import annotations

from typing import (AbstractSet, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from ..exceptions import LabelingError
from ..trajectory.models import MatchedTrajectory
from ..trajectory.ops import SOURCE_PAD, transitions_of

#: Trajectories at consecutive places of a group: ``(slot_position,
#: first_index, trajectories)`` — the ``i``-th of them is the group's
#: member ranked ``(slot_position, first_index + i)``. A group is one or
#: more runs; what a history refresh appends to it is one run per slot.
Run = Tuple[int, int, Sequence[MatchedTrajectory]]


class RouteTally:
    """How often each distinct route of one SD-pair group was travelled,
    and where in the group it was seen first.

    Everything normal-route inference reads — so the normal routes at any
    ``delta`` come from the tally, not from the group, and a group that
    grows by a few trajectories costs those trajectories
    (:meth:`extended`), not a recount. A route's rank is the place of its
    first trajectory in the group's order; an appended run can rank before
    what was already counted (the pair-wide group is its slots' groups one
    after another, and an earlier slot may grow), which is why the rank is
    kept and not the order of arrival.
    """

    __slots__ = ("total", "_routes", "_delta", "_normal", "_transitions")

    def __init__(self, runs: Iterable[Run],
                 base: Optional["RouteTally"] = None):
        self.total = base.total if base is not None else 0
        #: route -> (count, rank of its first trajectory)
        self._routes: Dict[Tuple[int, ...], Tuple[int, Tuple[int, int]]] = (
            dict(base._routes) if base is not None else {})
        routes = self._routes
        for position, first, trajectories in runs:
            self.total += len(trajectories)
            for index, trajectory in enumerate(trajectories, first):
                route = trajectory.route_key()
                known = routes.get(route)
                if known is None:
                    routes[route] = (1, (position, index))
                else:
                    routes[route] = (known[0] + 1,
                                     min(known[1], (position, index)))
        if not routes:
            raise LabelingError("cannot infer normal routes of an empty group")
        # The last read, kept: one SD pair is asked at one delta, trip
        # after trip.
        self._delta: Optional[float] = None
        self._normal: List[Tuple[int, ...]] = []
        self._transitions: FrozenSet[Tuple[int, int]] = frozenset()

    def extended(self, runs: Iterable[Run]) -> "RouteTally":
        """The tally of this group with ``runs`` added; this one is left
        as it was."""
        return RouteTally(runs, base=self)

    def _read(self, delta: float) -> None:
        if not (0.0 < delta < 1.0):
            raise LabelingError("delta must be in (0, 1)")
        routes, total = self._routes, self.total

        def popular_first(route):
            count, rank = routes[route]
            return -count, rank

        normal = sorted((route for route, (count, _) in routes.items()
                         if count / total > delta), key=popular_first)
        if not normal:
            normal = [min(routes, key=popular_first)]
        self._normal = normal
        self._transitions = frozenset(normal_transitions(normal))
        self._delta = delta

    def normal_routes(self, delta: float) -> List[Tuple[int, ...]]:
        """Routes travelled by more than a fraction ``delta`` of the group,
        most travelled first, equally travelled ones in the order the group
        has them; the single most travelled route when none clears
        ``delta``, so downstream features are always defined."""
        if self._delta != delta:
            self._read(delta)
        return self._normal

    def normal_transitions(self, delta: float) -> FrozenSet[Tuple[int, int]]:
        """The segment transitions on :meth:`normal_routes` — the
        membership set behind the normal route feature, immutable because
        every detector and stream of the group shares it."""
        if self._delta != delta:
            self._read(delta)
        return self._transitions


def infer_normal_routes(
    group: Sequence[MatchedTrajectory],
    delta: float = 0.4,
) -> List[Tuple[int, ...]]:
    """Routes travelled by more than a fraction ``delta`` of the group.

    If no route clears the threshold (which can happen in very fragmented
    groups) the single most popular route is returned, so downstream features
    are always defined.
    """
    return RouteTally([(0, 0, group)]).normal_routes(delta)


def normal_transitions(normal_routes: Sequence[Sequence[int]]) -> Set[Tuple[int, int]]:
    """The set of segment transitions occurring on any of the normal routes.

    This is the membership set behind the normal route feature; the fleet
    stream engine holds one per stream so NRFs stay O(1) per point.
    """
    transitions: Set[Tuple[int, int]] = set()
    for route in normal_routes:
        transitions.update(transitions_of(list(route)))
    return transitions


def normal_route_features(
    segments: Sequence[int],
    normal_routes: Sequence[Sequence[int]],
) -> List[int]:
    """The normal route feature (NRF) of each segment of a route.

    A segment's feature is 0 (normal) when the transition leading into it
    occurs on one of the inferred normal routes, and 1 otherwise. The source
    and destination segments always get feature 0.
    """
    if not normal_routes:
        raise LabelingError("at least one normal route is required")
    return transition_features(segments, normal_transitions(normal_routes))


def transition_features(segments: Sequence[int],
                        allowed: AbstractSet[Tuple[int, int]]) -> List[int]:
    """:func:`normal_route_features` given the normal routes' transitions
    (what ``PreprocessingPipeline.normal_transitions_for`` returns)."""
    if not segments:
        raise LabelingError("segments must not be empty")
    features = [0 if transition[0] == SOURCE_PAD or transition in allowed
                else 1 for transition in transitions_of(segments)]
    features[-1] = 0
    return features
