"""The host's speed, sampled while the program runs.

The benchmark box is shared: other tenants slow a whole process by 30% or
more for tens of seconds at a time, which moves every wall and CPU time of
a run together.  A fixed stdlib kernel, shaped like the program's hot path
(tuple keys, dict updates, Fraction sums) and never calling contact_tensor,
is timed from a CPU-time interval timer throughout the measured commands,
and around each set-up.  Its mean duration over a stretch of the run is the
time unit of that stretch: a change to the program cannot move it, only
the host can, and the host moves the program's times with it.  The
kernel's own time is taken back out of the command times.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

KERNEL_ITEMS = 2000
INTERVAL_S = 0.1          # CPU seconds between samples
# the kernel's typical duration on the 2-core x86 box the benchmark was
# written on; times scaled by it read as seconds on that box
REF_UNIT_S = 0.004


def _kernel_data() -> list:
    return [((i % 499, i % 7), Fraction(i % 97, 1 + i % 13))
            for i in range(KERNEL_ITEMS)]


def _kernel(data: list) -> float:
    start = time.perf_counter()
    acc: dict = {}
    for key, value in data:
        acc[key] = acc.get(key, 0) + value
    return time.perf_counter() - start


def unit_now() -> float:
    """Mean kernel duration over five back-to-back runs."""
    data = _kernel_data()
    return statistics.fmean(_kernel(data) for _ in range(5))


class SpeedSampler:
    """Context manager that samples the kernel every INTERVAL_S of CPU.

    `busy_s` is the wall time spent in samples so far, to be subtracted
    from the command times it overlaps.  Uses SIGVTALRM.
    """

    def __init__(self):
        self._data = _kernel_data()
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _on_signal(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(_kernel(self._data))
        self.busy_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGVTALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def unit_s(self, first: int = 0) -> float:
        """Mean kernel duration of the samples from `first` on: the time
        unit of the stretch of the run they cover.  A stretch too short
        to hold a sample takes the run's samples so far, or a fresh
        measurement."""
        return statistics.fmean(self.samples[first:] or self.samples
                                or [unit_now()])
