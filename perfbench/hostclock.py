"""Host-speed normalized time for a noisy shared host.

On a shared machine the speed of one core drifts by tens of percent,
over seconds and over minutes (other tenants contend for the core and
its caches), and CPU time drifts with it. Every run therefore reports
*reference-host seconds*: wall time scaled by ``CAL_REF_S`` over the
median time of a fixed calibration sweep measured through the run.

The sweep evaluates a window of a fixed random gate DAG of python
objects (slot attributes, fan-in lists, a few MB in all), the kind of
work the program's netlist passes do, and shares no code with the
program. It runs at set-up and pass boundaries and, at most every
``INTERVAL_S`` seconds, when the program reports a counter or phase
(:class:`CalibratingReport`). Calibration time itself is never counted.

One factor per run, the median over all its calibrations, because a
single sweep of a few milliseconds is itself noisy: scaling each
stretch of a run by the sweeps around it widened the spread of the b20
pass, while the per-run median narrowed it (perfbench/README.md, "Time
base"). Raw wall-clock times are reported beside the normalized ones in
the detail line.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List, Tuple

from repro.runtime import instrument

#: median sweep time on the reference host (a 2-vCPU Xeon VM, python
#: 3.11), over 1,264 sweeps of 16 b20 runs
CAL_REF_S = 0.0044
#: least wall time between two calibrations inside a measured region
INTERVAL_S = 1.0
_REPS = 2
_GATES = 40000
_WINDOW = 30000


class _Gate:
    __slots__ = ("kind", "fanin", "value")


def _build_dag() -> List[_Gate]:
    rng = random.Random(7)
    gates: List[_Gate] = []
    for index in range(_GATES):
        gate = _Gate()
        gate.kind = index % 3
        gate.value = index & 1
        gate.fanin = ([gates[rng.randrange(index)] for _ in range(2)]
                      if index > 100 else [])
        gates.append(gate)
    return gates


_DAG = _build_dag()


def _calibration_sweep(start: int) -> None:
    """Evaluate gates ``start .. start + _WINDOW`` of the DAG."""
    for gate in _DAG[start:start + _WINDOW]:
        fanin = gate.fanin
        if fanin:
            a, b = fanin[0].value, fanin[1].value
            gate.value = (a & b if gate.kind == 0 else a ^ b
                          if gate.kind == 1 else 1 - (a | b))


class HostClock:
    """Calibration timeline of one run."""

    def __init__(self) -> None:
        #: (start, end, sweep seconds) per calibration, in time order
        self.events: List[Tuple[float, float, float]] = []
        self._offset = 0

    def calibrate(self) -> None:
        start = time.perf_counter()
        best = float("inf")
        for _ in range(_REPS):
            # rotate the window so successive sweeps touch other gates
            self._offset = (self._offset + 7919) % (_GATES - _WINDOW)
            t0 = time.perf_counter()
            _calibration_sweep(self._offset)
            best = min(best, time.perf_counter() - t0)
        end = time.perf_counter()
        self.events.append((start, end, best))

    def maybe_calibrate(self) -> None:
        if not self.events or (time.perf_counter() - self.events[-1][1]
                               >= INTERVAL_S):
            self.calibrate()

    def scale(self) -> float:
        """Reference-host seconds per wall second, from every
        calibration of the run so far."""
        if not self.events:
            return 1.0
        return CAL_REF_S / statistics.median(s for _, _, s in self.events)

    def seconds(self, start: float, end: float) -> float:
        """Reference-host seconds of the wall interval [start, end],
        calibration time excluded. Call it once the run has ended."""
        return self.raw(start, end) * self.scale()

    def raw(self, start: float, end: float) -> float:
        """Wall seconds of [start, end], calibration time excluded."""
        inside = sum(min(end, e) - max(start, s) for s, e, _ in self.events
                     if s < end and e > start)
        return (end - start) - inside


class CalibratingReport(instrument.RunReport):
    """An ``instrument`` report that calibrates the host clock when the
    program reports progress, and keeps each phase's wall interval."""

    def __init__(self, clock: HostClock) -> None:
        super().__init__()
        self.clock = clock
        #: (phase name, wall start, wall end)
        self.intervals: List[Tuple[str, float, float]] = []

    def add_phase(self, name: str, seconds: float, calls: int = 1) -> None:
        super().add_phase(name, seconds, calls)
        if seconds:
            end = time.perf_counter()
            self.intervals.append((name, end - seconds, end))
        self.clock.maybe_calibrate()

    def add_count(self, name: str, amount: int = 1) -> None:
        super().add_count(name, amount)
        self.clock.maybe_calibrate()

    def phase_seconds(self, name: str) -> float:
        """Reference-host seconds of every interval of phase *name*."""
        return sum(self.clock.seconds(start, end)
                   for phase, start, end in self.intervals if phase == name)
