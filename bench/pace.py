"""Pacing: job times rescaled to a reference CPU speed.

The benchmark's machine is shared, and the speed of its CPUs drifts with
the load of other tenants: the same job takes from 1.0x to 1.7x its
fastest time, over seconds and over minutes.  Wall time alone then
measures the neighbours as much as the code.

A job calls ``start()`` first thing.  From then on SIGALRM fires every
``PERIOD_S`` seconds and its handler times ``probe()``, a fixed piece of
pure-Python rational arithmetic (stdlib only, so it is the same code in
every checkout) that runs at whatever speed the CPU has at that moment.
``paced_seconds()`` then scales each stretch of the job between two
probes by ``REFERENCE_S`` over the probe time around it, which gives the
job's duration on a CPU where the probe takes ``REFERENCE_S``.  The
probes cost about 2 % of a job, the same in every checkout.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
REFERENCE_S = 0.00055  # probe time at the reference speed: an uncontended CPU of the 2-core box


def probe() -> Fraction:
    """Fixed work of the kind the engine does: small-integer gcds in Python."""
    total = Fraction(0)
    for k in range(1, 160):
        total += Fraction(k, k * k + 1)
    return total


class Pacer:
    """Probe timings (start, duration) taken every PERIOD_S seconds."""

    def __init__(self):
        self.samples = []

    def tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        probe()
        self.samples.append((t0, time.perf_counter() - t0))

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.tick()
        return self.samples


def start() -> Pacer:
    pacer = Pacer()
    signal.signal(signal.SIGALRM, pacer.tick)
    pacer.tick()
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    return pacer


def paced_seconds(samples, a: float, b: float) -> float:
    """Seconds from perf_counter reading a to b at the reference speed.

    A stretch takes the speed of the median of the three probes around the
    one that last started before it (the first probe's before any), so one
    probe cut short by an interrupt does not count alone.
    """
    times = [t for t, _ in samples]
    durations = [d for _, d in samples]
    edges = [a] + times[bisect.bisect_right(times, a):bisect.bisect_left(times, b)] + [b]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        i = max(bisect.bisect_right(times, lo) - 1, 0)
        total += (hi - lo) * REFERENCE_S / statistics.median(durations[max(i - 1, 0):i + 2])
    return total
