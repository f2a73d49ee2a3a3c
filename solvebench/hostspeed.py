"""Host speed reference for the solve benchmark.

On a shared virtual machine the same solve can take twice as long from one
stretch of seconds to the next, because other tenants slow the host down.
The benchmark times a fixed pure-Python reference loop (Fraction arithmetic
and set operations, the program's own instruction mix) around and during
every timed call, and reports times in reference seconds:

    reference seconds = wall seconds / slowdown
    slowdown = reference loop time / its nominal time (NOMINAL_S_PER_ROUND each round)

that is, the wall time the call would take on a host that runs the loop at
its nominal speed. The loop never touches pmssc, so a change to the program
moves the reported times fully, while a change in host speed moves the call
and the loop alike and cancels out.
"""

import signal
import time
from fractions import Fraction

NOMINAL_S_PER_ROUND = 5e-6
LONG_ROUNDS = 4000  # about 20 ms: before and after each call
SHORT_ROUNDS = 400  # about 2 ms: every SAMPLE_PERIOD_S during a call
SAMPLE_PERIOD_S = 0.2


def slowdown(rounds=LONG_ROUNDS):
    """How much slower than nominal the host runs right now (1.0 = nominal)."""
    started = time.perf_counter()
    acc = Fraction(0)
    seen = set()
    for i in range(1, rounds + 1):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        seen.add(i % 97)
        frozenset(range(i % 50)).difference(seen)
    return (time.perf_counter() - started) / (rounds * NOMINAL_S_PER_ROUND)


class Sampler:
    """Samples the slowdown every SAMPLE_PERIOD_S from a SIGALRM handler while
    a call runs, so a long call sees the host speed changes inside it.

    ``spent`` is the wall time the handler itself took, to be taken off the
    call's wall time; the handler costs about 1% of it.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        started = time.perf_counter()
        self.samples.append(slowdown(SHORT_ROUNDS))
        self.spent += time.perf_counter() - started

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
