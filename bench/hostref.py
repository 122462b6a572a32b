"""Host speed reference: scales measured wall times to a nominal host speed.

The benchmark host's speed drifts by 20-30% over tens of seconds (shared
hardware; CPU time moves with wall time, so it is not scheduling). A
fixed reference kernel, timed right before and right after each timed
piece of work, tracks that drift: its time divided by ``NOMINAL_S`` is the
host's current slowness. The kernel mixes the kinds of work emtrace does
in Python (scalar float math on tuples, small-object churn with operator
overloading, tiny numpy calls) so it slows down together with it; it
shares no code with emtrace, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

NOMINAL_S = 0.004  # reference_seconds() at the nominal host speed
REPEATS = 3


class _Num:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _Num(self.v + other.v)

    def __mul__(self, other):
        return _Num(self.v * other.v)


_TRIS = [((0.1 * i, 0.2, 0.3), (1.0, 0.01 * i, 0.0), (0.0, 1.0, 0.2)) for i in range(64)]
_VECS = [np.array([0.1 * i, 1.0, 0.3]) for i in range(16)]


def reference_work(rounds: int = 20) -> float:
    """A fixed amount of interpreter, allocation and small-numpy work."""
    acc = 0.0
    for r in range(rounds):
        ox, oy, oz, dx, dy, dz = 0.01 * r, -0.5, -0.5, 0.3, 0.8, 0.5
        for (v0x, v0y, v0z), (e1x, e1y, e1z), (e2x, e2y, e2z) in _TRIS:
            px = dy * e2z - dz * e2y
            py = dz * e2x - dx * e2z
            pz = dx * e2y - dy * e2x
            det = e1x * px + e1y * py + e1z * pz
            if -1e-12 < det < 1e-12:
                continue
            acc += ((ox - v0x) * px + (oy - v0y) * py + (oz - v0z) * pz) / det
        log = []
        a, b = _Num(1.0), _Num(0.5)
        for _ in range(60):
            log.append((a, b))
            a = a * b + b
        acc += a.v + len(log)
        for v in _VECS[:4]:
            acc += float(np.cross(v, _VECS[r % 16]) @ v)
    return acc


def reference_seconds() -> float:
    """Median time of ``REPEATS`` reference runs, with the cyclic GC paused.

    Pausing the collector keeps the program's live heap out of the timing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def nominal(wall: float, before: float, after: float) -> float:
    """Wall seconds scaled to the nominal host speed.

    ``before`` and ``after`` are :func:`reference_seconds` taken just before
    and just after the timed work.
    """
    return wall * NOMINAL_S / ((before + after) / 2.0)
