"""The stream engine's tick as it ran before warm points left the batch.

:meth:`repro.core.stream.StreamEngine.tick` finishes a point whose prefix
row is stored and whose label is fixed or decided in the pass that gathers
it, and sends only the misses on to the batched cell step and policy pass.
:class:`ReferenceEngine` keeps the tick that sent *every* point down that
path: each point is gathered into the key, NRF and label lists, every
prefix is looked up again, every undecided label goes through
:func:`~repro.core.decision.greedy_choices` and a second loop applies
them all. RNEL is the scalar rule table of ``reference_networks.py``. Both
ticks must write the same rows, slots, counters and labels, which is what
``test_engine_tick_reference.py`` checks after every step of a drawn
script. Everything but ``tick`` is the library engine's own.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.decision import greedy_choices
from repro.core.stream import StreamEngine

from reference_networks import rnel_from_degrees


class ReferenceEngine(StreamEngine):
    """A :class:`StreamEngine` whose :meth:`tick` batches every point."""

    def __init__(self, *args, use_rnel: bool = True, **kwargs):
        super().__init__(*args, use_rnel=use_rnel, **kwargs)
        self._use_rnel = use_rnel

    def tick(self) -> int:
        ready = self._ready
        if not ready:
            return 0
        states = self._states
        if states.version != self._rsrnet.weights_version:
            self.invalidate_cache()
        if not states.fits(len(ready)):
            self._compact()
        in_degrees, out_degrees = self._pipeline.token_degrees()
        work = []
        stepping = []
        keys: List[Tuple[int, int]] = []
        nrf_values: List[int] = []
        labels: List[Optional[int]] = []
        for stream in ready.values():
            if stream.deferred:
                stepping.append(stream)
                continue
            index = stream.stepped
            tokens = stream.tokens
            token = tokens[index]
            if index == 0:
                nrf_values.append(0)
                labels.append(0)
            else:
                segments = stream.segments
                nrf_values.append(
                    0 if (segments[index - 1], segments[index])
                    in stream.normal_transitions else 1)
                labels.append(rnel_from_degrees(
                    out_degrees[tokens[index - 1]], in_degrees[token],
                    stream.labels[-1]) if self._use_rnel else None)
            work.append(stream)
            keys.append((stream.row, token))
        for stream in stepping:
            keys.append((stream.row, stream.tokens[stream.stepped]))

        edges = states.edges
        rows = [edges.get(key) for key in keys]
        missing = ()
        if None in rows:
            missing = list(dict.fromkeys(
                key for key, row in zip(keys, rows) if row is None))
            parents = [parent for parent, _ in missing]
            states.append(missing, *self._rsrnet.lstm.cell.forward_batch(
                self._cache.gather([token for _, token in missing]),
                states.hidden[parents], states.cell[parents]))
            rows = [edges[key] for key in keys]
        states.hits += len(keys) - len(missing)

        labeled = len(work)
        undecided = [row for row, label in enumerate(labels) if label is None]
        if undecided:
            choices = greedy_choices(
                states, [rows[row] for row in undecided],
                [nrf_values[row] for row in undecided],
                [work[row].labels[-1] for row in undecided],
                self._rsrnet, self._asdnet)
            for row, label in zip(undecided, choices):
                labels[row] = label

        for label, stream, row in zip(labels, work, rows):
            index = stream.stepped
            stream.labels.append(label)
            stream.stepped = index + 1
            stream.row = row
            if stream.traces:
                self._observe_tick(stream, index)
            if index + 2 >= len(stream.segments):
                del ready[stream.vehicle_id]
        for stream, row in zip(stepping, rows[labeled:]):
            stream.hidden_rows.append(row)
            stream.row = row
            stream.stepped += 1
            waiting = len(stream.segments) - stream.stepped
            if waiting == 0 or (waiting == 1 and stream.finalizing):
                del ready[stream.vehicle_id]
        self.points_processed += labeled
        self.ticks += 1
        return labeled
