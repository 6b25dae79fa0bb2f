"""Machine-speed calibration, so that runs on a shared host can be compared.

Other tenants of the host slow every instruction of this one, in bursts of
under a second and in spells of minutes: on the 2-vCPU Xeon guest the
benchmark was made on, one band-long instance took 0.37 s to 0.65 s in
successive 20 s windows, and for an hour a fixed pure-Python loop ran at
about half the speed it had on the quiet host.  Taking each instance's
fastest visit removes some of the bursts but not the spells.  A spell slows
a fixed probe by about the same factor, so each run also times that probe
(`calibrate`) between solves, and `scale` maps a run's times to the speed
at which the probe takes REFERENCE_SECONDS.  The probe calls no `dper`
code, so no program change can move it.

The probe does the two kinds of work `dper solve` does: pure-Python
hash-consing, like the diagram and planner code, and whole-array numpy
passes over 8 MB, like the maximizer re-count.  Contention slows the two
differently; with the hash-consing loop alone, the numpy-bound rand-verify
runs spread half again as wide.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_SECONDS = 0.025  # the probe's time on a quiet host
CLAUSES = ((5, 10), (3, 96), (40, 1), (7, 7))  # (positive, negative) bits


def calibrate() -> float:
    """Seconds taken by a fixed hash-consing loop and fixed array passes."""
    table: dict[tuple[int, int, int], int] = {}
    x = 1
    bits = np.arange(1 << 20)
    start = time.perf_counter()
    for i in range(30000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 1023, x >> 20, i & 255)
        table[key] = table.get(key, 0) + 1
    sat = np.ones(len(bits), dtype=bool)
    for pos, neg in CLAUSES:
        sat &= ((bits & pos) != 0) | ((~bits & neg) != 0)
    return time.perf_counter() - start


def scale(seconds: float, calibrations: list[float]) -> float:
    """`seconds` as it would read with the probe at REFERENCE_SECONDS.

    The median calibration of the run stands for its machine speed.  The
    fastest one does not: on a busy host it depends on whether one quiet
    moment fell into the run.  Over ten band-long runs, the fastest time of
    the hash-consing loop alone had a quartile spread of 0.29, its median
    time one of 0.07.
    """
    return seconds * REFERENCE_SECONDS / statistics.median(calibrations)
