"""Per-group statistics and normal-route inference as one pass over the group.

What ``repro.labeling`` derives from an SD-pair group, written as independent
scalar loops over the whole group — no tally, no ranks, nothing extended —
so the tests can hold the memoized, carried and extended values of a history
snapshot against a count made from scratch.
"""

from __future__ import annotations

from collections import Counter


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
