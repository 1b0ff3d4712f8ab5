"""Events packed as the columns of one ``ingest_batch`` shard command, for
tests that drive a shard without the facade."""

from __future__ import annotations

from typing import Sequence

from repro.core.stream import PLAIN_ROW
from repro.serve.backends import IngestEvent


def pack_events(events: Sequence[IngestEvent]) -> tuple:
    """``events`` as the ``(vehicle_ids, segments, extras)`` columns of one
    ``ingest_batch`` command: the fields past the segment ride ``extras``
    only where they differ from a plain point's."""
    vehicle_ids, segments, extras = columns = ([], [], {})
    for event in events:
        if event[2:] != PLAIN_ROW:
            extras[len(segments)] = event[2:]
        vehicle_ids.append(event[0])
        segments.append(event[1])
    return columns
