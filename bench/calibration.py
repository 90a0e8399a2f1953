"""Machine-speed calibration for the end-to-end times.

The host's speed moves by up to about 1.5x, both from one second to the
next and over minutes, and it moves for all code alike.  Each timed
child therefore also times ``calibrate()``, a fixed piece of work that
does not touch spinsqueeze, right before and right after the timed
interval.  ``run.py`` reports each time scaled by ``CAL_REF_S`` over the
mean of those two calibrations: the time the interval would take on a
machine where ``calibrate()`` takes ``CAL_REF_S``.
"""

import time

import numpy as np

# Close to the median calibration time on the 2-vCPU machine the
# benchmark was first tuned on, so scaled times read near raw ones there.
CAL_REF_S = 0.2

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((16, 16)) + 16.0 * np.eye(16)
_VECTOR = _RNG.standard_normal(16)


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter work (integer loop,
    string-keyed dict, sort) and small dense linear algebra.  It uses
    well under a megabyte, so it leaves the child's peak resident set
    alone, and its matrices are small enough that BLAS stays on one
    thread."""
    t0 = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += (i * i) % 7
    for _ in range(60):
        table = {str(i): float(i) for i in range(2_000)}
        total += len(sorted(table.items(), reverse=True))
    for _ in range(4_000):
        x = np.linalg.solve(_MATRIX, _VECTOR)
        total += int(np.exp(-np.abs(x)).sum() > 0)
    if total <= 0:
        raise RuntimeError("calibration computed nothing")
    return time.perf_counter() - t0
