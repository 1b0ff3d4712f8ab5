"""Transition-fraction statistics within an SD-pair group (Step-2 / Step-3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..exceptions import LabelingError
from ..trajectory.models import MatchedTrajectory
from ..trajectory.ops import SOURCE_PAD, transitions_of


@dataclass
class TransitionStatistics:
    """Fractions of trajectories in a group travelling each transition.

    ``fraction(t)`` is the number of group trajectories containing transition
    ``t`` divided by the group size. Fractions for the padded source
    transition and for transitions into the group's destination segment are
    defined as 1.0, following the paper ("the source and destination road
    segments are definitely travelled within its group").
    """

    group_size: int
    counts: Dict[Tuple[int, int], int]
    source: int
    destination: int

    @classmethod
    def from_group(cls, group: Sequence[MatchedTrajectory]) -> "TransitionStatistics":
        """Build statistics from the trajectories of one SD-pair group."""
        if not group:
            raise LabelingError("cannot build transition statistics of an empty group")
        return cls(group_size=0, counts={}, source=group[0].source,
                   destination=group[0].destination).extended(group)

    def extended(self, added: Iterable[MatchedTrajectory]
                 ) -> "TransitionStatistics":
        """The statistics of this group with ``added`` appended to it.

        Costs the added trajectories plus one copy of the counts — these
        statistics are left as they were, so whoever still reads them (a
        history snapshot's memo) keeps its answer.
        """
        counts = dict(self.counts)
        group_size = self.group_size
        for trajectory in added:
            group_size += 1
            # Count each transition once per trajectory (set semantics), so the
            # fraction is "share of trajectories using this transition".
            for transition in set(transitions_of(trajectory.segments)):
                counts[transition] = counts.get(transition, 0) + 1
        return TransitionStatistics(group_size=group_size, counts=counts,
                                    source=self.source,
                                    destination=self.destination)

    def fraction(self, transition: Tuple[int, int]) -> float:
        """Fraction of group trajectories containing ``transition``."""
        if self.group_size <= 0:
            raise LabelingError("group_size must be positive")
        previous, current = transition
        if previous == SOURCE_PAD or current == self.destination:
            return 1.0
        return self.counts.get(transition, 0) / self.group_size

    def fraction_sequence(self, segments: Sequence[int]) -> List[float]:
        """Transition fractions aligned one-to-one with a route's segments."""
        return [self.fraction(t) for t in transitions_of(segments)]
