"""Wall time of a pass, corrected for the speed of a shared host.

The benchmark runs on a few cores of a shared host. A fixed pure-Python
loop there runs at anything from its full speed to half of it, in phases
that last from milliseconds to minutes; a 12 s pass of `verify_paper`
sits inside such a phase, so its plain wall time spread by a quarter from
run to run. The host's speed is measured beside the program instead:

- An interval timer interrupts the pass every INTERVAL_S of wall time.
  The handler runs PROBE_LOOPS turns of `probe`, a fixed loop that does
  not touch the package, and records how long they took.
- The samples fall at even steps of wall time, so the mean of their
  speeds, mean(1 / probe_i), is the host's mean speed over the pass.
- The corrected time is the pass's own time (the handler's time taken
  out) at the reference speed 1 / REFERENCE_PROBE_S:

      speed_wall = (wall - handler time) * REFERENCE_PROBE_S * mean(1 / probe_i)

A change to the package moves `wall` and leaves the probes alone, so it
shows in full. A slow phase of the host moves both, and cancels out.
REFERENCE_PROBE_S is a fixed scale. On the 2-vCPU host that took the
baseline it puts the corrected times near the plain times of the host's
quiet moments (search: a median of 0.53 s corrected over ten runs, where
the fastest plain passes took 0.50-0.58 s).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.01
PROBE_LOOPS = 1000
WARM_LOOPS = 100  # untimed turns that bring the probe's code back into cache
REFERENCE_PROBE_S = 60e-6


def probe(loops: int) -> int:
    s = 0
    for i in range(loops):
        s += (i * i) % 7
    return s


def corrected(wall: float, handler_s: float, probes: list[float]) -> float:
    """The pass's time at the reference speed; see the module docstring."""
    return (wall - handler_s) * REFERENCE_PROBE_S * statistics.fmean(1 / p for p in probes)


class Stopwatch:
    """`with stopwatch:` around the timed region of a pass; `.wall` after it."""

    def __enter__(self):
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = perf_counter() - self.start


class SpeedSampler(Stopwatch):
    """A stopwatch that also samples the host's speed while it runs.

    It takes one probe as it starts, so that a region shorter than
    INTERVAL_S has a sample too. The handler replaces any SIGALRM handler
    for the duration and restores it afterwards.
    """

    def _sample(self) -> float:
        probe(WARM_LOOPS)
        start = perf_counter()
        probe(PROBE_LOOPS)
        end = perf_counter()
        self.probes.append(end - start)
        return end

    def _on_alarm(self, signum, frame) -> None:
        entered = perf_counter()
        self.handler_s += self._sample() - entered

    def __enter__(self):
        self.probes: list[float] = []
        self.handler_s = 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return super().__enter__()

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        super().__exit__(*exc)
        signal.signal(signal.SIGALRM, self._previous)
        self.speed_wall = corrected(self.wall, self.handler_s, self.probes)
