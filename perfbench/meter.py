"""CPU speed meter: scales wall times to a fixed reference speed.

The vCPUs of the benchmark's baseline machine switch between a fast and a
slow phase (the same work takes up to 1.8 times longer), each phase lasting
from one to tens of seconds, independently on each vCPU; the load average
and the process's CPU time do not show it.  Plain wall times of the same
code then spread by about 25% from run to run.

The meter times a fixed pure-Python loop that does not use topobelief
(about 0.2 ms) every TICK_S seconds, from a SIGALRM handler, so it runs on
the CPU the measured code runs on and at the same time.  A stretch of wall
time is scaled by the mean speed of the ticks inside it and at its two ends:

    scaled = (wall - time spent in ticks) * mean(REF_NS / tick_ns)

which is the time the stretch would have taken had the CPU run the loop in
REF_NS throughout.  A change to topobelief changes the wall time and not
the loop, so it moves the scaled time by the same share; the host's phases
move both and cancel.  Only one meter may run in a process.
"""

from __future__ import annotations

import signal
import time

TICK_S = 0.025
# nanoseconds the loop takes in the fast phase of the baseline machine
# (Intel Xeon vCPU at 2.0 GHz, CPython 3.11), so that scaled times read
# about as that phase's wall times
REF_NS = 180_000

_now = time.perf_counter_ns


def _reference_loop() -> None:
    table: dict[int, int] = {}
    x = 0
    for i in range(1000):
        x = (x * 31 + i) & 0xFFFF
        table[x & 255] = table.get(x & 255, 0) + 1


class SpeedMeter:
    """Ticks of (start_ns, duration_ns) while started.

    A disabled meter never ticks, and its scaled times are the wall times.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.ticks: list[tuple[int, int]] = []
        self._previous = None

    def tick(self, *_args) -> None:
        start = _now()
        _reference_loop()
        self.ticks.append((start, _now() - start))

    def start(self) -> None:
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self.tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def begin(self) -> int:
        """Start of a stretch, right after a tick."""
        if self.enabled:
            self.tick()
        return _now()

    def end(self, start_ns: int) -> tuple[float, float]:
        """(wall ns without ticks, scaled ns) of the stretch from begin() to now."""
        end_ns = _now()
        if not self.enabled:
            return end_ns - start_ns, end_ns - start_ns
        self.tick()
        ticks = list(self.ticks)
        inside = [t for t in ticks if start_ns <= t[0] < end_ns]
        ends = [t for t in ticks if t[0] + t[1] <= start_ns][-1:] + [t for t in ticks if t[0] >= end_ns][:1]
        wall = end_ns - start_ns - sum(d for _, d in inside)
        speeds = [REF_NS / d for _, d in inside + ends]
        return wall, wall * sum(speeds) / len(speeds)
