"""The frozen calibration kernel behind "calibrated seconds".

This host's speed moves by tens of percent for seconds at a time (shared
2-vCPU VM), so wall-clock laps of identical code do not repeat. Every lap
is therefore bracketed by this fixed kernel, and the lap's wall time is
divided by how slow the kernel ran relative to the constant ``K0``::

    f = mean(kernel before, kernel after) / K0      calibrated = wall / f

The kernel mixes the kinds of work the system under test does — small
``numpy`` matmul / matvec + ``tanh`` steps (the LSTM tick at batch 64 and
batch 1) and pure-Python dict/loop bookkeeping (streams, queues, lattices)
— and runs each kind half on a cache-resident footprint and half on one of
a few MB, because this host's slowdowns are partly cache contention: over
15 s windows a small-footprint kernel tracked ``single_stream`` best
(residual sd 1.6 % against 2.1 %), a large-footprint one ``fleet_inproc``
(1.8 % against 2.7 %) and ``raw_gateway`` (0.8 % against 1.9 %), and their
mean was close to the better one on all three. It must never import
``repro`` and must never change: every recorded number is in units of it.
Changing ``K0``, the footprints or the step counts silently rescales every
metric of every past result file.
"""

import time

import numpy as np

#: Nominal kernel duration in seconds: one calibrated second is the time
#: in which this host, running at the speed where the kernel takes ``K0``,
#: does one second of work.
K0 = 0.033

_MATMUL_STEPS = 50      # per footprint
_MATVEC_STEPS = 500     # per footprint
_PYTHON_STEPS = 42500   # per footprint
_SMALL_KEYS = 1024      # dict of 1k ints: cache-resident
_LARGE_KEYS = 65536     # dict of 64k ints: ~5 MB

_rng = np.random.default_rng(0xCA11B8)
_X_BATCH = _rng.standard_normal((64, 64))
_X_VEC = _rng.standard_normal(64)
#: One weight matrix is 128 KB; the large footprint cycles through 8 (1 MB)
#: and 16 (2 MB) of them, the small one reuses the first.
_W_BATCH = [_rng.standard_normal((64, 256)) * 0.05 for _ in range(8)]
_W_VEC = [_rng.standard_normal((256, 64)) * 0.05 for _ in range(16)]


def kernel() -> float:
    """Run the fixed work once; return its wall-clock duration in seconds."""
    started = time.perf_counter()
    batch = _X_BATCH
    for _ in range(_MATMUL_STEPS):
        batch = np.tanh(batch @ _W_BATCH[0])[:, :64]
    for step in range(_MATMUL_STEPS):
        batch = np.tanh(batch @ _W_BATCH[step & 7])[:, :64]
    vector = _X_VEC
    for _ in range(_MATVEC_STEPS):
        vector = np.tanh(_W_VEC[0] @ vector)[:64]
    for step in range(_MATVEC_STEPS):
        vector = np.tanh(_W_VEC[step & 15] @ vector)[:64]
    total = 0
    for keys in (_SMALL_KEYS, _LARGE_KEYS):
        table = {}
        mask = keys - 1
        for i in range(_PYTHON_STEPS):
            key = (i * 2654435761) & mask
            value = table.get(key, 0) + i
            table[key] = value
            total += value & 7
    elapsed = time.perf_counter() - started
    # Consume the results so no step can be skipped.
    if total < 0 or not np.isfinite(batch[0, 0] + vector[0]):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


def speed_factor(before: float, after: float) -> float:
    """How slow the host ran around a lap, relative to ``K0`` (1.0 = nominal)."""
    return (before + after) / (2.0 * K0)
