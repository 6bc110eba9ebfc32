"""Benchmark-side tracing: spans recorded around calls into the program.

Nothing here adds a span inside ``src/``. The traced run times the
program at its public boundaries only:

* a :class:`TracedHooks` subclass of the public ``FlowHooks``, passed to
  ``run_wcm_flow(hooks=...)``, times ``make_model``, ``make_estimator``,
  ``build_graph``, ``partition`` and ``signoff``;
* :meth:`Recorder.patched` swaps a few module-level functions the flow
  and the session call (``insert_wrappers``, ``stitch_scan_chains``,
  ``run_wcm_flow`` as seen from ``repro.core.session``) for timed
  wrappers, and restores them on exit;
* the workloads wrap their own calls (``WcmSession.apply``/``solve``,
  ``build_prebond_test_view``, the ATPG entry points) in spans.

Spans stay in memory; :meth:`Recorder.dump` writes them out once the
run has ended. With tracing off no span is recorded and nothing is
patched; the program's own ``instrument`` counters are collected over
the measured regions either way, so both runs report the same work.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import List

from repro.core.flow import FlowHooks
from repro.runtime import instrument

from hostclock import CalibratingReport, HostClock


class Recorder:
    """In-memory span store, (name, start, end, parent index), plus the
    program's own phase/counter report for the measured regions."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self.clock = HostClock()
        #: ``instrument`` phases and counters of the measured regions;
        #: collected with tracing on and off alike
        self.report = CalibratingReport(self.clock)

    @contextmanager
    def measured(self):
        """Mark a timed region: collect the program's counters, and with
        tracing on, time the patched functions too. The host clock is
        calibrated on entry, on exit and as the program reports."""
        self.clock.calibrate()
        with instrument.collect(self.report), self.patched():
            yield
        self.clock.calibrate()

    @contextmanager
    def setup(self):
        """Mark a set-up region: calibrated like a measured region, but
        its counters are not part of the workload's work."""
        self.clock.calibrate()
        with instrument.collect(CalibratingReport(self.clock)):
            yield
        self.clock.calibrate()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def total(self, name: str) -> float:
        """Seconds, by the run's host clock, of every span called
        *name*."""
        return sum((self.clock.seconds(start, end)
                    for span_name, start, end, _ in self.spans
                    if span_name == name and end is not None), 0.0)

    def timed(self, name: str, fn):
        """*fn* wrapped in a span of *name*."""
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def patched(self):
        """Time the dft and flow functions the flow and the session
        look up at call time; a no-op with tracing off."""
        if not self.enabled:
            yield
            return
        import repro.core.flow as flow_mod
        import repro.core.session as session_mod
        targets = [
            (flow_mod, "insert_wrappers", "dft.insert"),
            (flow_mod, "stitch_scan_chains", "dft.stitch"),
            (session_mod, "insert_wrappers", "dft.insert"),
            (session_mod, "stitch_scan_chains", "dft.stitch"),
            (session_mod, "run_wcm_flow", "flow"),
        ]
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _ in targets]
        for module, attr, name in targets:
            setattr(module, attr, self.timed(name, getattr(module, attr)))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            json.dump([{"name": name, "start_s": start - origin,
                        "end_s": (end or start) - origin, "parent": parent}
                       for name, start, end, parent in self.spans],
                      handle)


class TracedHooks(FlowHooks):
    """The default flow steps, each inside a recorder span."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def make_model(self, problem, config):
        with self.recorder.span("timing_model"):
            return super().make_model(problem, config)

    def make_estimator(self, problem, config):
        with self.recorder.span("testability"):
            return super().make_estimator(problem, config)

    def build_graph(self, problem, kind, available_ffs, config, model,
                    estimator):
        with self.recorder.span("graph"):
            return super().build_graph(problem, kind, available_ffs, config,
                                       model, estimator)

    def partition(self, graph, model):
        with self.recorder.span("clique"):
            return super().partition(graph, model)

    def signoff(self, problem, plan, config):
        with self.recorder.span("signoff"):
            return super().signoff(problem, plan, config)


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one recorded span on this host (seconds)."""
    probe = Recorder(enabled=True)
    started = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - started) / samples
