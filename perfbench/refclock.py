"""A clock that measures work in reference seconds.

The machines this benchmark runs on share their cores with other tenants.
The same pure-Python work then takes 15 to 25 % longer or shorter from one
minute to the next: on the 2-core shared VM the benchmark was tuned on, a
fixed Fraction loop averaged over 2 s windows ranged from 0.19 s to 0.30 s,
and raw wall times of ten identical runs spread by up to 27 % between their
quartiles, wider than any useful regression bound.

So each timed process runs `reference()`, a fixed computation, every
PERIOD_S of wall time from a SIGALRM handler on its own core, and scales the
wall time elapsed since the previous tick by REFERENCE_S / (the reference's
duration). A reference second is a second at the speed at which
`reference()` takes REFERENCE_S, about the median speed of that VM.
Interpreter and package work that gets faster or slower still shows in full;
the machine's drift cancels. Raw wall times are kept next to these.
"""

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
REFERENCE_S = 140e-6


def reference() -> Fraction:
    """The fixed computation; only the stdlib, so no change to skewpairs moves it."""
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i % 7 + 1, i % 5 + 1)
    return total


def reference_duration(repeats: int = 9) -> float:
    """Median duration of `reference()` right now, in seconds, once the
    interpreter has specialized its bytecode."""
    for _ in range(10):
        reference()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class RefClock:
    """Reference seconds since start(); one per process, as it owns SIGALRM."""

    def __init__(self):
        self.ticks = []

    def start(self) -> None:
        # (reference seconds so far, perf_counter at the last tick, scale);
        # one attribute, so now() never sees half an update from _tick.
        self._state = (0.0, time.perf_counter(), REFERENCE_S / reference_duration())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        elapsed, last, _ = self._state
        scale = REFERENCE_S / (end - start)
        self._state = (elapsed + (start - last) * scale, end, scale)
        self.ticks.append(end - start)

    def now(self) -> float:
        elapsed, last, scale = self._state
        return elapsed + (time.perf_counter() - last) * scale
