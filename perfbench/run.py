#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-b20 --seed 2019 --seconds 20 --trace 0

Workloads (see perfbench/README.md): ``paper-b20`` and ``eco-b12``.
With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a separate traced run. The line before it is a
``{"detail": ...}`` object: quality outputs, fingerprints, work
counters, the reference verdict and the host. Every output is checked
(see README); on any mismatch the run still prints its result, with
``"correct": false``, and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOAD_NAMES = ("paper-b20", "eco-b12")
#: the program's host-independent work counters, checked for repeats
WORK_COUNTERS = ("atpg.podem_backtracks", "sim.propagate_events",
                 "graph.grid_candidate_pairs", "sta.analyze_calls",
                 "clique.rejected_merges", "flow.eco_rounds")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def percentile(values, q: float) -> float:
    """Linear-interpolated quantile *q* of *values* (inclusive)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def host() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg())}


def timings(out, span) -> dict:
    """Set-up, pass and operation times of *out*, with *span* turning a
    wall interval into seconds."""
    latencies = [span(*interval) for _, interval in out.ops]
    kinds = {}
    for (kind, _), latency in zip(out.ops, latencies):
        kinds.setdefault(kind, []).append(latency)
    return {
        "setup_s": statistics.median(sum(span(*iv) for iv in rep)
                                     for rep in out.setup),
        "pass_s": statistics.median(span(*iv) for iv in out.passes),
        "op_p50_ms": 1000.0 * percentile(latencies, 0.50),
        "op_p95_ms": 1000.0 * percentile(latencies, 0.95),
        "op_count": len(latencies),
        "kind_p50_ms": {kind: 1000.0 * statistics.median(samples)
                        for kind, samples in sorted(kinds.items())},
    }


def end_to_end(out, clock) -> dict:
    times = timings(out, clock.seconds)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (times["setup_s"], "s"),
        "pass_s": (times["pass_s"], "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        # absent only when the call that produces it failed
        "wrapper_cells": out.quality.get("wrapper_cells", (0, "count")),
    }


def calibration(clock) -> dict:
    from hostclock import CAL_REF_S

    loops = sorted(seconds for _, _, seconds in clock.events)
    if not loops:
        return {"count": 0}
    return {"count": len(loops), "ref_s": CAL_REF_S, "min_s": loops[0],
            "median_s": statistics.median(loops), "max_s": loops[-1],
            "scale": clock.scale()}


def per_layer(out, rec) -> dict:
    """Per-layer metrics of a traced run: the benchmark's spans plus the
    program's own ``instrument`` phases and counters, read, not added.
    A layer that does no work on a workload reads 0."""
    from tracing import span_cost_s

    phases, counters = rec.report.phases, rec.report.counters
    busy = rec.report.phase_seconds

    def calls(name):
        return phases[name].calls if name in phases else 0

    def count(name):
        return counters.get(name, 0)

    def part(name):
        samples = out.setup_parts.get(name)
        return statistics.median(rec.clock.seconds(*iv) for iv in samples) \
            if samples else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    graph_s, clique_s = busy("flow.graph"), busy("flow.partition")
    signoff_s = busy("flow.insertion") + busy("flow.sta")
    model_s, estimator_s = rec.total("timing_model"), rec.total("testability")
    pairs = count("graph.grid_candidate_pairs")
    merges, rejected = count("clique.merges"), count("clique.rejected_merges")
    attempts = count("atpg.podem_attempts")
    wall_pass_total = sum(rec.clock.raw(*iv) for iv in out.passes)
    s, n, r, pct = "s", "count", "ratio", "%"
    return {
        "setup.generate_s": (part("setup.generate_s"), s),
        "setup.place_s": (part("setup.place_s"), s),
        "setup.problem_s": (part("setup.problem_s"), s),
        "setup.session_s": (part("setup.session_s"), s),
        "timing_model.busy_s": (model_s, s),
        "testability.busy_s": (estimator_s, s),
        "graph.calls": (calls("flow.graph"), n),
        "graph.busy_s": (graph_s, s),
        "graph.candidate_pairs": (pairs, n),
        "graph.edges": (out.graph_edges, n),
        "graph.edge_yield": (ratio(out.graph_edges, pairs), r),
        "graph.cone_builds": (count("graph.cone_bitset_builds"), n),
        "clique.calls": (calls("flow.partition"), n),
        "clique.busy_s": (clique_s, s),
        "clique.merges": (merges, n),
        "clique.rejected_merges": (rejected, n),
        "clique.merge_yield": (ratio(merges, merges + rejected), r),
        "flow.self_s": (rec.total("flow") - graph_s - clique_s - signoff_s
                        - model_s - estimator_s, s),
        "flow.signoff_s": (signoff_s, s),
        "flow.eco_rounds": (count("flow.eco_rounds"), n),
        "flow.eco_repairs": (count("flow.eco_repairs"), n),
        "flow.adopted_ffs": (count("flow.adopted_ffs"), n),
        "dft.insertion_s": (busy("flow.insertion"), s),
        "dft.restitch_s": (rec.total("dft.stitch")
                           + busy("session.restitch"), s),
        "dft.testview_s": (rec.total("dft.testview"), s),
        "sta.busy_s": (busy("flow.sta") + busy("session.baseline"), s),
        "sta.context_builds": (count("sta.context_builds"), n),
        "sta.analyze_calls": (count("sta.analyze_calls"), n),
        "sta.delta_analyze_calls": (count("sta.delta_analyze_calls"), n),
        "sta.context_invalidations": (count("sta.context_invalidations"), n),
        "session.apply_s": (rec.total("session.apply"), s),
        "session.solve_s": (rec.total("session.solve"), s),
        "session.graph_replays": (count("session.graph_replays"), n),
        "session.signoff_hits": (count("session.signoff_hits"), n),
        "session.signoff_hit_ratio": (
            ratio(count("session.signoff_hits"), count("flow.eco_rounds")),
            r),
        "session.fallbacks": (count("session.fallback"), n),
        "session.restitches": (count("session.restitch"), n),
        "atpg.stuck_at_s": (rec.total("atpg.stuck_at"), s),
        "atpg.transition_s": (rec.total("atpg.transition"), s),
        "atpg.random_s": (busy("atpg.random"), s),
        "atpg.podem_s": (busy("atpg.podem"), s),
        "atpg.compaction_s": (busy("atpg.compaction"), s),
        "atpg.podem_attempts": (attempts, n),
        "atpg.podem_backtracks": (count("atpg.podem_backtracks"), n),
        "atpg.backtracks_per_attempt": (
            ratio(count("atpg.podem_backtracks"), attempts), r),
        "atpg.random_patterns": (count("atpg.random_patterns"), n),
        "atpg.deterministic_patterns": (
            count("atpg.deterministic_patterns"), n),
        "sim.propagate_events": (count("sim.propagate_events"), n),
        "sim.tape_blocks": (count("sim.tape_blocks"), n),
        "trace.pass_s": (statistics.median(rec.clock.seconds(*iv)
                                           for iv in out.passes), s),
        "trace.spans": (len(rec.spans), n),
        "trace.overhead_pct": (
            100.0 * ratio(len(rec.spans) * span_cost_s(), wall_pass_total),
            pct),
    }


def check_reference(workload: str, seed: int, seconds: int, out,
                    counters: dict):
    """Compare fingerprints with the recorded reference for this seed, if
    there is one. Returns ``(reference kind, counters match or None)``."""
    try:
        with open(REFERENCE) as handle:
            entry = json.load(handle).get(workload, {}).get(
                f"{seed}/{seconds}")
    except FileNotFoundError:
        entry = None
    if entry is None:
        return "self-checks only", None
    for name, fp in sorted(out.fingerprints.items()):
        if entry["fingerprints"].get(name) != fp:
            out.failures.append(f"{name}: fingerprint differs from the "
                                f"reference")
    return "recorded", entry["counters"] == counters


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    # the benchmark measures the default program: no environment
    # override of backend, cache, jobs, tracing or fault injection
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, SRC)
    from repro.runtime.config import configure
    configure(backend="python", no_cache=True, jobs=1)

    from tracing import Recorder
    from workloads import WORKLOADS

    rec = Recorder(enabled=bool(args.trace))
    out = WORKLOADS[args.workload](args.seed, args.seconds, rec)
    counters = {name: rec.report.counters.get(name, 0)
                for name in WORK_COUNTERS}
    reference, counters_match = check_reference(
        args.workload, args.seed, args.seconds, out, counters)
    attempted = len(out.ops)
    failed = min(attempted, len(out.failures))
    metrics = per_layer(out, rec) if args.trace \
        else end_to_end(out, rec.clock)
    if args.trace:
        rec.dump(os.path.join(ROOT, ".bench_out",
                              f"spans-{args.workload}-{args.seed}.json"))

    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": len(out.passes), "setup_reps": len(out.setup),
        "times": timings(out, rec.clock.seconds),
        "wall_times": timings(out, rec.clock.raw),
        "calibration": calibration(rec.clock),
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": out.failures,
        "quality": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(out.quality.items())},
        "fingerprints": out.fingerprints,
        "counters": dict(sorted(rec.report.counters.items())),
        "work_counters": counters,
        "reference": reference,
        "counters_match_reference": counters_match,
        "host": host(),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not out.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if out.failures else 0


if __name__ == "__main__":
    sys.exit(main())
