"""Host speed, sampled before, during and after a timed call.

The host this benchmark was built on drifts: over 90 s a fixed loop took
15 to 25 ms per one-second window, and the rates of five runs of one
commit spread by 13 to 28 % between quartiles.  ``Meter.measure`` times a
call and scales it to reference speed.  While the call runs, SIGALRM
interrupts it every ``PERIOD`` seconds to time a short sample loop.  The
call's wall time, less the time the samples took, is multiplied by the
mean of ``REFERENCE_S / sample`` over the samples before, during and after
it.

The samples run in tmlab's process, so they must not slow down when tmlab
does.  The loop looks up a small dict and adds small integers: it
allocates nothing, so the state of tmlab's heap and garbage collector does
not reach it.  It runs twice and only the second pass is timed; the first
refills the caches that tmlab has just filled with its own data.
``meter_check.py`` checks that a known slowdown of tmlab comes through the
scaling in full.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD = 0.003
LOOPS = 60
# Median of 3000 samples on the reference host (2 cores, Python 3.11.7).
REFERENCE_S = 3.3e-5
_TABLE = {i: (i * 37) & 255 for i in range(16)}
_KEYS = tuple(range(0, 16, 2))


def _loop(acc: int) -> int:
    table = _TABLE
    for _ in range(LOOPS):
        for k in _KEYS:
            acc = (acc + table[k]) & 255
    return acc


def sample() -> float:
    """Seconds one fixed sample loop takes now, with warm caches."""
    acc = _loop(0)
    start = perf_counter()
    _loop(acc)
    return perf_counter() - start


class Meter:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, _signum, _frame):
        start = perf_counter()
        self.samples.append(sample())
        self.spent += perf_counter() - start

    def measure(self, fn, *args):
        """Call ``fn(*args)``; return its result and its seconds at reference speed."""
        self.samples = [sample()]
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.append(sample())
        speed = sum(REFERENCE_S / s for s in self.samples) / len(self.samples)
        return result, (wall - self.spent) * speed
