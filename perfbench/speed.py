"""Wall time rescaled to a fixed CPU speed.

The 2-core x86 VM this benchmark was tuned on switches each core between two
speeds about 1.8x apart, several times a second and independently of the
work, because other tenants share the host. Raw wall time of a 10 s pass
then varies by half between runs of the same inputs. A Sampler times PROBE,
a fixed loop of exact Fraction arithmetic like ccomb's own, every EVERY_S
seconds while a pass runs, and rescales each stretch of wall time between
two samples by REFERENCE_S over the probe time at its end. The result is the
time the pass would take at the speed where the probe takes REFERENCE_S.

The probe is bound here, before ccomb is imported, so nothing ccomb does to
the fractions module can change it.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

EVERY_S = 0.05
# The probe's time at the fast speed of the tuning VM. Only the ratio of two
# runs' figures matters, so this fixes the unit, not the comparison.
REFERENCE_S = 0.00055


def probe() -> float:
    """Seconds one fixed Fraction loop takes now (about REFERENCE_S)."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(1, k) * Fraction(k + 1, k + 2)
    return perf_counter() - start


class Sampler:
    """Context manager that probes the CPU speed on SIGALRM while open."""

    def __init__(self):
        self.samples = []  # (time the probe ended, probe seconds)

    def _sample(self, signum=None, frame=None) -> None:
        took = probe()
        self.samples.append((perf_counter(), took))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # covers the stretch after the last timer sample
        return False

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end], without the probes' own time, at the
        reference speed."""
        total, previous = 0.0, start
        for ended, took in self.samples:
            began = min(ended - took, end)
            if began > previous:
                total += (began - previous) * REFERENCE_S / took
            previous = max(previous, ended)
            if previous >= end:
                break
        return total
