"""Host speed sampling, to scale timings to a nominal host speed.

The benchmark's host shares its cores with other tenants, and its speed
swings by up to half for stretches of seconds to minutes (see README.md,
Noise).  A ``Sampler`` times a fixed pure-Python probe in the process
being measured: on a SIGALRM timer every ``EVERY_S`` while the program
runs, and explicitly at the edges of each timed interval.  A probe that
takes ``NOMINAL_S`` runs at speed 1; one that takes twice as long, at
speed 1/2.  ``scaled`` turns a measured interval into the time it would
have taken at speed 1: the interval, less the probes inside it, times
the mean speed of the probes taken over it.  The probe does not touch
fstopo, so a change to the program moves the scaled times by its own
share and nothing else.
"""

from __future__ import annotations

import signal
import time

# about the probe's fastest time on a 2-core x86-64 host with Python 3.11
NOMINAL_S = 0.0005
EVERY_S = 0.05

_TABLE = list(range(4096))


def probe() -> int:
    """Fixed work: integer arithmetic, list indexing and a small dict."""
    s = 0
    d: dict[int, int] = {}
    for i in range(1500):
        j = _TABLE[(i * 2654435761) & 4095]
        s += (j * j) ^ i
        d[j & 255] = d.get(j & 255, 0) + 1
    return s


class Sampler:
    """Probe timings of this process, in the order they were taken."""

    def __init__(self) -> None:
        self.took: list[tuple[float, float]] = []  # (start, seconds)
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:  # the timer fired during an explicit probe
            return
        self._busy = True
        start = time.perf_counter()
        probe()
        self.took.append((start, time.perf_counter() - start))
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Take an explicit probe; return the index just past it."""
        self.sample()
        return len(self.took)

    def scaled(self, start: float, end: float, first: int,
               last: int) -> float:
        """The interval from START to END at speed 1.  FIRST and LAST
        are what ``mark`` returned just before START and just after END."""
        probes = self.took[first - 1:last]
        inside = sum(t for s, t in probes if start <= s < end)
        return (end - start - inside) * _speed(probes)

    def summary(self) -> dict:
        """Mean speed and total probe time of the whole process."""
        return {"speed": _speed(self.took),
                "probe_s": sum(t for _, t in self.took)}


def _speed(probes: list[tuple[float, float]]) -> float:
    return sum(NOMINAL_S / t for _, t in probes) / len(probes)
