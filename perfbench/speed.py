"""Rescale measured times to the speed of an uncontended vCPU.

On a small shared VM each vCPU alternates, for seconds to minutes at a
time, between its full speed and roughly 0.6 of it, because other guests
load the same physical cores.  The same work then takes up to 1.8 times as
long, with no steal time reported.  While a workload runs, a timer signal
interrupts it every PROBE_INTERVAL_S and times a fixed pure-Python probe
(allocation, hashing, sorting) on the same vCPU.  ``PROBE_REF_S`` over a
probe's time is the vCPU's speed at that moment; the workload's time, minus
the time spent in probes, times the mean speed is its time at reference
speed.  On an uncontended vCPU of the reference machine (Intel Xeon,
2 vCPUs, Python 3.11) the speed is 1 and the rescaled time equals wall time.
"""

from __future__ import annotations

import signal
from time import perf_counter

PROBE_REF_S = 0.0008    # probe time on an uncontended reference vCPU
PROBE_INTERVAL_S = 0.04


def probe() -> None:
    """A fixed mix of the interpreter work the program does."""
    total = 0
    for i in range(4000):
        total += i ^ (i >> 3)
    rows = [((i * 2654435761) & 0xFFFFFF, str(i)) for i in range(1000)]
    rows.sort()


class SpeedProbe:
    """Probe samples ``(finished_at, seconds)`` taken on a timer signal
    between ``start`` and ``stop`` and whenever ``sample`` is called."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_signal_args) -> None:
        begin = perf_counter()
        probe()
        end = perf_counter()
        self.samples.append((end, end - begin))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, begin: float, end: float) -> tuple[float, float]:
        """(seconds spent in probes, mean speed) over the samples that
        finished in ``[begin, end]``.  A time measured over that window is
        ``(elapsed - probe seconds) * speed`` at reference speed."""
        window = [seconds for finished, seconds in self.samples if begin <= finished <= end]
        if not window:
            raise ValueError("no probe sample in the window")
        return sum(window), sum(PROBE_REF_S / seconds for seconds in window) / len(window)
