"""How fast the host runs interpreted code, measured while an operation runs.

On a shared machine the same work takes 20-30% more or less CPU time from
one second to the next.  The benchmark therefore times a short fixed
pure-Python loop before and after each operation, and every INTERVAL_S
during it from a SIGALRM handler, and reports each CPU time scaled to the
speed at which that loop takes REF_S.
"""

from __future__ import annotations

import signal
import statistics
from time import process_time

REF_ITERATIONS = 4_000
# A fixed scale: about the CPU seconds reference_loop() takes on an idle
# 2-core x86-64 machine with Python 3.11.7.
REF_S = 0.00030
INTERVAL_S = 0.02
AROUND = 5  # reference-loop timings taken between two operations


def reference_loop() -> float:
    """CPU seconds of a fixed pure-Python loop."""
    t0 = process_time()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return process_time() - t0


def around() -> list[float]:
    return [reference_loop() for _ in range(AROUND)]


def scaled(cpu: float, speed_samples: list[float]) -> float:
    """``cpu`` seconds at the speed where the loop takes REF_S, given the
    loop timings taken around and during the work."""
    return cpu * REF_S / statistics.median(speed_samples)


class Sampler:
    """While entered, times reference_loop() every INTERVAL_S of wall time.

    ``own_s`` is the CPU time the handler took, to be taken off the
    operation's.  Only one process-wide SIGALRM timer exists, so only one
    Sampler may be entered at a time."""

    def __init__(self):
        self.samples: list[float] = []
        self.own_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = process_time()
        try:
            self.samples.append(reference_loop())
        except RecursionError:  # the operation is at the recursion limit; leave it to fail on its own
            pass
        self.own_s += process_time() - t0

    def __enter__(self) -> Sampler:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
