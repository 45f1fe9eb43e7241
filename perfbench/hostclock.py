"""A clock that scales timings to a host of fixed speed.

It imports only built-in modules, so that a fresh interpreter can
calibrate before it times greff's import without importing for greff.
"""

import gc
import time

CAL_TREES = 30  # object trees the calibration builds and walks
CAL_DEPTH = 200  # nodes per tree
CAL_NOMINAL_S = 0.0025  # its time in a quiet phase of the 2-CPU host this was tuned on
CAL_EVERY_S = 0.2  # least time between calibrations inside a pass
CAL_REPEATS = 3  # runs of the calibration whose median gives the current speed


class _Node:
    __slots__ = ("left", "right", "value")

    def __init__(self, left, right, value) -> None:
        self.left, self.right, self.value = left, right, value


def _tree(n: int):
    if n == 0:
        return None
    return _Node(_tree(n - 1), None, n) if n % 2 else _Node(None, _tree(n - 1), str(n))


def _size(t) -> int:
    return 0 if t is None else 1 + _size(t.left) + _size(t.right)


def median(values) -> float:
    v = sorted(values)
    return (v[(len(v) - 1) // 2] + v[len(v) // 2]) / 2


def calibration_s() -> float:
    """Time to build and walk small object trees, which runs no greff code.

    It allocates, reads attributes and recurses as greff does, so host
    contention slows it about as much as greff.  Scaled by it, one
    queue-loop operation's times spread by 9-10% within a process,
    against 20-29% raw and 11-15% scaled by a plain arithmetic loop.
    The collector is off, so greff's heap does not change it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(CAL_TREES):
            _size(_tree(CAL_DEPTH))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Scales timings to a host of fixed speed.

    The host is shared, and its speed drifts in phases up to 1.7x apart
    that last 10-30 s, so raw timings of the same work spread by 20-30%
    between runs.  Between operations, at most every CAL_EVERY_S, the
    clock times the calibration CAL_REPEATS times; the scale is
    CAL_NOMINAL_S over their median.  A timing is multiplied by the mean
    of the scales before and after it.  The calibration runs no greff
    code, so a change to greff moves a scaled timing by the same factor
    as the raw one.
    """

    def __init__(self) -> None:
        self.due = 0.0
        self.scale = 1.0

    def calibrate(self) -> float:
        self.scale = CAL_NOMINAL_S / median(calibration_s() for _ in range(CAL_REPEATS))
        self.due = time.perf_counter() + CAL_EVERY_S
        return self.scale

    def tick(self) -> float:
        """The current scale, calibrating first if one is due."""
        return self.calibrate() if time.perf_counter() >= self.due else self.scale
