"""Wall-clock timing scaled to a fixed reference speed of the host.

On a 2-CPU virtual machine whose cores are shared with other tenants, the
speed of one process swings by up to 1.9x within seconds (a fixed Fraction
loop, timed in 1-second windows over one minute, took anywhere from 20 to 38
ms), and no number of ops per run averages that out. So while timed work
runs, SIGALRM fires every PROBE_INTERVAL and the handler times a fixed piece
of exact arithmetic (`_reference`, about 0.5 ms). The work's own wall time
(its wall time minus the probes inside it) is then scaled by PROBE_NOMINAL
over the mean probe time: the time the work would take at the speed at which
one probe takes PROBE_NOMINAL seconds. Program changes do not move the
probe, so the scaled time moves with the program and not with the
neighbours.

Single process, no threads: the handler runs in the main thread between
bytecodes of the timed work.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL = 0.025
PROBE_NOMINAL = 0.0005

_XS = [Fraction(i % 7 - 3, 1 + i % 5) for i in range(30)]
_YS = _XS[:5]


def _reference() -> Fraction:
    acc = Fraction(0)
    for a in _XS:
        for b in _YS:
            acc += a * b
    return acc


class Clock:
    def __init__(self):
        self._probes: list[tuple[float, float]] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self._probe())

    def _probe(self):
        start = perf_counter()
        _reference()
        self._probes.append((start, perf_counter()))

    def time(self, fn, *args):
        """Run fn(*args); return (result, own wall seconds, scaled seconds).
        One probe runs just before and one just after the work, so short
        work is scaled too."""
        self._probes = []
        self._probe()
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = perf_counter()
        self._probe()
        inside = sum(b - a for a, b in self._probes if a >= start and b <= end)
        mean_probe = statistics.fmean(b - a for a, b in self._probes)
        own = end - start - inside
        return result, own, own * PROBE_NOMINAL / mean_probe
