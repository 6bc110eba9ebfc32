"""The benchmark's two workloads.

Every workload runs on a paper die generated with the reproduction
seed (``DIE_SEED``, the seed behind every Table III number), under the
performance-optimized ("tight") clock, with the python kernels. The
workload seed drives the program's own random inputs: the testability
estimator's sampling (``WcmConfig.seed``), the ATPG random phase and
fault sample (``AtpgConfig.seed``) and the ECO edit stream.

Each workload returns a :class:`Outcome`: set-up repetitions, pass
times, per-operation latencies, failures, fingerprints and quality
outputs. The amount of work is a pure function of the seed and
``--seconds``, so the program's work counters repeat exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.atpg.engine import run_stuck_at_atpg
from repro.atpg.transition import run_transition_atpg
from repro.bench.generator import generate_die
from repro.bench.itc99 import die_profile
from repro.core.config import Scenario
from repro.core.flow import run_wcm_flow
from repro.core.problem import build_problem, tight_clock_for
from repro.core.session import (MoveFf, MoveTsv, SetThreshold, WcmSession,
                                result_fingerprint)
from repro.dft.scan import stitch_scan_chains
from repro.dft.testview import build_prebond_test_view
from repro.experiments.common import SCALES, method_config
from repro.experiments.paper_data import TABLE3_PAPER
from repro.place.placer import place_die
from repro.util.errors import NetlistError
from repro.util.rng import DeterministicRng

from tracing import Recorder, TracedHooks

#: generator seed of the paper dies (every Table III number uses it)
DIE_SEED = 2019
#: Table III is reported at default scale; ATPG runs at the smoke budget
FLOW_SCALE = SCALES["default"]
ATPG_SCALE = SCALES["smoke"]
#: set-up repetitions per run; ``setup_s`` is their median (one b20
#: set-up takes about 2 s, short enough for a burst of host noise to
#: move it, so the median needs more than three)
SETUP_REPS = 5
#: ECO edits per pass and per ``--seconds`` (20 s -> 600 edits)
EDITS_PER_PASS = 30
#: displacement of one ECO move in x and in y (um), as in the ECO bench
NUDGE_UM = 0.1


Interval = Tuple[float, float]


@dataclass
class Outcome:
    """What one workload run measured and produced. Times are kept as
    wall-clock intervals and converted to seconds at the end, once the
    host clock's calibration timeline is complete."""

    #: per set-up repetition, the intervals that make it up
    setup: List[List[Interval]] = field(default_factory=list)
    #: per-layer set-up parts: name -> intervals
    setup_parts: Dict[str, List[Interval]] = field(default_factory=dict)
    passes: List[Interval] = field(default_factory=list)
    #: (operation kind, interval) for every operation
    ops: List[Tuple[str, Interval]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: name -> content fingerprint, compared with the reference
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: name -> (value, unit)
    quality: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: sum of ``total_graph_edges`` over the flow results of the passes
    graph_edges: int = 0

    def part(self, name: str, start: float, end: float) -> None:
        self.setup_parts.setdefault(name, []).append((start, end))

    def op(self, kind: str, fn: Callable):
        """Run one operation, timing it and counting an exception as a
        failed operation (its result is then ``None``)."""
        started = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # counted, reported, never hidden
            traceback.print_exc()
            self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            result = None
        self.ops.append((kind, (started, time.perf_counter())))
        return result


@contextmanager
def timed(intervals: List[Interval]):
    """Append the wall interval of the block to *intervals*."""
    started = time.perf_counter()
    try:
        yield
    finally:
        intervals.append((started, time.perf_counter()))


def passes_for(seconds: int, nominal_s: float) -> int:
    """Passes per run: at least one, more when ``--seconds`` allows."""
    return max(1, int(seconds // nominal_s))


def prepared_die(circuit: str, die: int, out: Outcome):
    """Generate, stitch, place and time one paper die under the tight
    clock; returns ``(bare netlist, tight problem, tight scenario)``."""
    t0 = time.perf_counter()
    netlist = generate_die(die_profile(circuit, die), seed=DIE_SEED)
    t1 = time.perf_counter()
    stitch_scan_chains(netlist)
    place_die(netlist)
    t2 = time.perf_counter()
    problem = build_problem(netlist, already_prepared=True)
    clock = tight_clock_for(problem)
    tight = problem.retime(clock)
    t3 = time.perf_counter()
    out.part("setup.generate_s", t0, t1)
    out.part("setup.place_s", t1, t2)
    out.part("setup.problem_s", t2, t3)
    return netlist, tight, Scenario.performance_optimized(clock.period_ps)


def flow_config(method: str, scenario: Scenario, seed: int):
    return dataclasses.replace(method_config(method, scenario, FLOW_SCALE),
                               seed=seed)


def violating_endpoints(result) -> int:
    return (len(result.final_timing.violations)
            + len(result.test_mode_timing.violations))


def check_plan(result, netlist, label: str, out: Outcome) -> None:
    """The plan is a partition of the die's TSVs (the program's own
    validator) and accounts for every TSV of the bare die."""
    try:
        result.plan.validate(result.wrapped_netlist)
    except NetlistError as exc:
        out.failures.append(f"{label}: invalid plan: {exc}")
        return
    tsvs = {p.name for p in netlist.ports.values() if p.is_tsv}
    planned = {t for g in result.plan.groups for t in g.tsvs}
    planned |= set(result.plan.excluded_tsvs)
    if planned != tsvs:
        out.failures.append(f"{label}: plan covers {len(planned)} of "
                            f"{len(tsvs)} TSVs")


def paper_gap_pct(circuit: str, die: int, additional: int) -> float:
    paper = TABLE3_PAPER[(circuit, die)]["ours_tight"][1]
    return 100.0 * abs(additional - paper) / paper


# ---------------------------------------------------------------------------
# paper-b20: cold Table III flow (agrawal/tight + ours/tight) on b20 die 1,
# then stuck-at + transition ATPG on the die ours/tight wrapped
# ---------------------------------------------------------------------------
def flow_calls(problem, scenario, seed: int, rec: Recorder,
               out: Outcome) -> dict:
    """One cold agrawal/tight and one ours/tight flow: method -> result."""
    hooks = TracedHooks(rec) if rec.enabled else None
    results = {}
    for method in ("agrawal", "ours"):
        config = flow_config(method, scenario, seed)

        def call(config=config):
            with rec.span("flow"):
                return run_wcm_flow(problem, config, hooks=hooks)
        result = out.op(f"flow.{method}", call)
        if result is not None:
            results[method] = result
    return results


def atpg_calls(wrapped_netlist, config, rec: Recorder, out: Outcome) -> dict:
    """The pre-bond test view, then stuck-at and transition ATPG on it:
    model -> result."""
    with rec.span("dft.testview"):
        view = build_prebond_test_view(wrapped_netlist)
    results = {}
    for model, entry in (("stuck_at", run_stuck_at_atpg),
                         ("transition", run_transition_atpg)):
        def call(entry=entry, model=model):
            with rec.span(f"atpg.{model}"):
                return entry(view, config)
        result = out.op(f"atpg.{model}", call)
        if result is not None:
            results[model] = result
    return results


def paper_b20(seed: int, seconds: int, rec: Recorder) -> Outcome:
    out = Outcome()
    passes = passes_for(seconds, 60.0)
    dies = []
    for _ in range(max(SETUP_REPS, passes)):
        rep = []
        with rec.setup(), timed(rep):
            dies.append(prepared_die("b20", 1, out))
        out.setup.append(rep)
        del dies[:-passes]  # keep only the dies the passes use
    atpg_config = ATPG_SCALE.atpg_config(die_profile("b20", 1).gates,
                                         seed=seed)
    for index in range(passes):
        # a fresh problem per pass, so every pass starts cold
        netlist, problem, scenario = dies[-1 - index]
        tests = {}
        with rec.measured(), timed(out.passes):
            results = flow_calls(problem, scenario, seed, rec, out)
            if "ours" in results:
                tests = atpg_calls(results["ours"].wrapped_netlist,
                                   atpg_config, rec, out)
        for method, result in results.items():
            label = f"{method}_tight"
            out.graph_edges += result.total_graph_edges
            check_plan(result, netlist, label, out)
            fp = result_fingerprint(result)
            if out.fingerprints.setdefault(label, fp) != fp:
                out.failures.append(f"{label}: pass {index} differs from "
                                    f"pass 0")
        for model, result in tests.items():
            pair = f"{result.coverage!r}/{result.pattern_count}"
            if out.fingerprints.setdefault(model, pair) != pair:
                out.failures.append(f"{model}: pass {index} differs from "
                                    f"pass 0")
            if not (0.0 < result.coverage <= 1.0
                    and result.pattern_count == len(result.patterns) > 0):
                out.failures.append(f"{model}: implausible result {pair}")
    if "ours" in results:  # the last pass's results
        ours = results["ours"]
        out.quality["wrapper_cells"] = (ours.additional_wrapper_cells,
                                        "count")
        out.quality["timing_violations"] = (violating_endpoints(ours),
                                            "count")
        out.quality["paper_gap_pct"] = (
            paper_gap_pct("b20", 1, ours.additional_wrapper_cells), "%")
    if "agrawal" in results:
        agrawal = results["agrawal"]
        out.quality["agrawal_wrapper_cells"] = (
            agrawal.additional_wrapper_cells, "count")
        out.quality["agrawal_timing_violations"] = (
            violating_endpoints(agrawal), "count")
    patterns = 0
    for model, result in tests.items():
        out.quality[f"{model}_coverage_pct"] = (100.0 * result.coverage, "%")
        patterns += result.pattern_count
    if tests:
        out.quality["pattern_count"] = (patterns, "count")
    return out


# ---------------------------------------------------------------------------
# eco-b12: seeded edit stream on a warm WcmSession over b12 die 1
# ---------------------------------------------------------------------------
def edit_stream(seed: int, count: int, netlist, d_th0: float) -> List:
    """FF moves, TSV moves and ``d_th`` re-tunes in rotation, as the
    existing ECO bench does: each move nudges one object by
    ``NUDGE_UM`` in x and y, and the re-tunes cycle ``d_th``. The seed
    shuffles the order in which FFs and TSVs are visited."""
    rng = DeterministicRng(seed).child("eco-b12")
    ffs = rng.shuffled(sorted(inst.name
                              for inst in netlist.scan_flip_flops()))
    tsvs = rng.shuffled(sorted(p.name for p in netlist.ports.values()
                               if p.is_tsv))
    position = {name: (netlist.instances[name].x, netlist.instances[name].y)
                for name in ffs}
    position.update({name: (netlist.ports[name].x, netlist.ports[name].y)
                     for name in tsvs})

    def nudge(name):
        x, y = position[name]
        position[name] = (x + NUDGE_UM, y + NUDGE_UM)
        return position[name]

    edits = []
    for k in range(count):
        step = k // 3
        if k % 3 == 0:
            name = ffs[step % len(ffs)]
            edits.append(MoveFf(name, *nudge(name)))
        elif k % 3 == 1:
            name = tsvs[step % len(tsvs)]
            edits.append(MoveTsv(name, *nudge(name)))
        else:
            edits.append(SetThreshold(d_th_um=d_th0 + 0.2 * (step % 5)))
    return edits


def plan_key(result) -> str:
    """Cheap digest of one solve's answer: the plan and its verdict."""
    plan = result.plan
    groups = [(g.kind.value, tuple(g.tsvs), g.reused_ff)
              for g in plan.groups]
    return repr((groups, plan.excluded_tsvs, violating_endpoints(result)))


def eco_b12(seed: int, seconds: int, rec: Recorder) -> Outcome:
    out = Outcome()
    session = None
    for _ in range(SETUP_REPS):
        rep = []
        with rec.setup(), timed(rep):
            netlist, problem, scenario = prepared_die("b12", 1, out)
            t0 = time.perf_counter()
            config = flow_config("ours", scenario, seed)
            session = WcmSession(netlist, config, already_prepared=True)
            session.solve()
            out.part("setup.session_s", t0, time.perf_counter())
        out.setup.append(rep)

    passes = max(1, seconds)
    edits = edit_stream(seed, passes * EDITS_PER_PASS, session.netlist,
                        session.config.d_th_um)
    kinds = {MoveFf: "eco.move_ff", MoveTsv: "eco.move_tsv",
             SetThreshold: "eco.set_threshold"}
    chain = hashlib.sha256()
    for index in range(passes):
        batch = edits[index * EDITS_PER_PASS:(index + 1) * EDITS_PER_PASS]
        solved = []
        with rec.measured(), timed(out.passes):
            for edit in batch:
                def call(edit=edit):
                    with rec.span("session.apply"):
                        session.apply(edit)
                    with rec.span("session.solve"):
                        return session.solve()
                solved.append(out.op(kinds[type(edit)], call))
        for result in solved:
            if result is None:
                chain.update(b"-")
                continue
            chain.update(plan_key(result).encode())
            out.graph_edges += result.total_graph_edges
    out.fingerprints["edit_plans"] = chain.hexdigest()

    if result is not None:
        check_plan(result, session.netlist, "final", out)
        warm = result_fingerprint(result)
        # reference: a cold flow on the edited die, outside the timing
        cold_problem = build_problem(session.netlist.clone(),
                                     clock=session.config.scenario.clock,
                                     already_prepared=True)
        cold = result_fingerprint(run_wcm_flow(cold_problem, session.config))
        if warm != cold:
            out.failures.append("final session state differs from a cold "
                                "run_wcm_flow on the edited die")
        out.fingerprints["final"] = warm
        out.quality["wrapper_cells"] = (result.additional_wrapper_cells,
                                        "count")
        out.quality["timing_violations"] = (violating_endpoints(result),
                                            "count")
    return out


WORKLOADS: Dict[str, Callable[[int, int, Recorder], Outcome]] = {
    "paper-b20": paper_b20,
    "eco-b12": eco_b12,
}
