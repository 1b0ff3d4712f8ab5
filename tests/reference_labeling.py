"""Per-group statistics and normal-route inference as one pass over the group.

What ``repro.labeling`` derives from an SD-pair group, written as independent
scalar loops over the whole group — no tally, no ranks, nothing extended —
so the tests can hold the memoized, carried and extended values of a history
snapshot against a count made from scratch.
"""

from __future__ import annotations

from collections import Counter


def reference_group(groups, source, destination, time_slot, min_size):
    """The trajectories a trip of ``(source, destination)`` starting in
    ``time_slot`` is judged against, read off a snapshot's group map: its
    own slot group when that holds at least ``min_size`` of them, else the
    pair's trajectories of every slot, in map order."""
    own = [trajectory for key, group in groups.items() for trajectory in group
           if (key.source, key.destination, key.time_slot)
           == (source, destination, time_slot)]
    if len(own) >= min_size:
        return own
    return [trajectory for key, group in groups.items() for trajectory in group
            if (key.source, key.destination) == (source, destination)]


def reference_normal_routes(group, delta):
    """Routes travelled by more than ``delta`` of the group, most travelled
    first and equally travelled ones in the order the group has them; the
    single most travelled (first in group order among equals) when none
    clears ``delta``."""
    counts = Counter(tuple(trajectory.segments) for trajectory in group)
    normal = [route for route, count in counts.items()
              if count / len(group) > delta]
    if not normal:
        normal = [counts.most_common(1)[0][0]]
    return sorted(normal, key=lambda route: -counts[route])


def reference_transition_counts(group):
    """``transition -> number of group trajectories containing it``, the
    padded source transition ``(-1, e1)`` included."""
    counts = Counter()
    for trajectory in group:
        segments = list(trajectory.segments)
        counts.update(set(zip([-1] + segments, segments)))
    return dict(counts)
