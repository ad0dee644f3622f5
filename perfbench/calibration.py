"""Correction of timings for contention from other tenants of the host.

On a shared host the same pass runs at two speeds: the host switches, in
spells of one to twenty seconds, between a fast state and a state about
1.8x slower, and CPU time equals wall time in both.  A run spends a
varying share of its time in the slow state, so raw times of identical
runs differ by a third.

Each timed sample is therefore taken next to a fixed calibration loop: a
few hundred object allocations, attribute updates, tuple slices and dict
stores, the operations polyqtt's own code is made of.  The loop never
calls polyqtt, so a change to polyqtt cannot move it.  A sample of t
seconds taken while the loop took c seconds is reported as
t * REFERENCE_S / c: the time the sample takes on a host where the loop
takes REFERENCE_S, its time in the fast state of the 2-core host (Python
3.11) the benchmark was defined on.  The reference is fixed rather than
taken from the run, because a run can spend all of its time in the slow
state.  Code that the slow state slows less than the loop (the parser,
for one) is over-corrected, so absolute values read somewhat low; two
commits measured on one host compare fairly.
"""

from __future__ import annotations

import signal
import statistics
import time


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _loop() -> int:
    env, d, x = (), {}, None
    for i in range(600):
        x = _Node(i, x)
        env = env + (x,) if len(env) < 8 else env[1:] + (x,)
        d[i & 63] = x.a
        if isinstance(x.b, _Node):
            x.b.a += 1
    return len(d)


def calibrate() -> float:
    """Seconds the calibration loop takes now (fastest of three)."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t)
    return best


REFERENCE_S = 0.23e-3
TICK_S = 0.1


class Ticker:
    """Also calibrates every TICK_S seconds while a long sample runs.

    A timer signal interrupts the running code and times the loop, so a
    sample that spans several of the host's spells is corrected by the
    host's speed during it, not only at its two ends.  ``spent`` is the
    time the ticks themselves took, to be taken off the sample.
    """

    def __init__(self):
        self.cals: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self.cals.append(calibrate())
        self.spent += time.perf_counter() - t

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def corrected(samples: list[tuple[float, float]]) -> float:
    """Median over (seconds, calibration) samples of one measurement."""
    return statistics.median(t * REFERENCE_S / c for t, c in samples)
