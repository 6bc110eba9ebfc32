"""Golden digest of every candidate-pair timing verdict of the sharing
graph sweep.

For each die, method and scenario, both TSV directions are swept with
the grid-indexed :func:`build_wcm_graph` and every pair that reaches
the timing check (every pair past the exact distance test) is hashed
in visit order with its verdict: rejected on timing, or admitted to
the cone test. No estimator is passed, so the digest pins the timing
model and the sweep order and nothing else. The digests were recorded
while ``ReuseTimingModel.pair_feasible`` still rebuilt a clique state
and a fresh ledger for every pair, before per-node records and the
pair kernel replaced it.
"""

import hashlib

import pytest

from repro.bench.generator import generate_die
from repro.bench.itc99 import die_profile
from repro.core.config import Scenario, WcmConfig
from repro.core.graph import _REJ_DISTANCE, _REJ_TIMING, build_wcm_graph
from repro.core.problem import build_problem, tight_clock_for
from repro.dft.scan import stitch_scan_chains
from repro.netlist.core import PortKind
from repro.place.placer import place_die

#: (die, method, scenario) -> (candidate pairs, pairs admitted by the
#: timing check, sha256 of the verdicts)
GOLDEN = {
    ("b12", "agrawal", "tight"): (
        3116, 3072,
        "0ecfe29c5b9d8053ade126dfb738a0c5cb94f5a92e2e6f0b34ac2cc915c014a0"),
    ("b12", "agrawal", "area"): (
        3116, 3116,
        "649aeb9e7619429d9784dd369ff2cbf73428c608769984f459074644ce353410"),
    ("b12", "ours", "tight"): (
        3112, 3050,
        "8e20b07641e0d008f75355b178d70fd6250949c562331f885899ecbbdaa1e533"),
    ("b12", "ours", "area"): (
        3116, 3116,
        "649aeb9e7619429d9784dd369ff2cbf73428c608769984f459074644ce353410"),
    ("b20", "agrawal", "tight"): (
        636150, 636043,
        "385a075c37f088b91a2c14a0bb827cf676793ba0693f823ec62a2f2131177b8b"),
    ("b20", "agrawal", "area"): (
        636150, 636150,
        "730b19b50f42cd2acbcad1be6c19e6641ba27e55c62b14122daf561535d05911"),
    ("b20", "ours", "tight"): (
        610041, 452690,
        "59eaaab529e1686e61b400ecde71d35988bacdabb9e8a0c09aeb73ae0d774f88"),
    ("b20", "ours", "area"): (
        636150, 636150,
        "730b19b50f42cd2acbcad1be6c19e6641ba27e55c62b14122daf561535d05911"),
}

_METHODS = {"agrawal": WcmConfig.agrawal, "ours": WcmConfig.ours}


@pytest.fixture(scope="module")
def problems():
    """circuit -> (area problem, tight problem, tight scenario) of its
    die 1, each built once per module."""
    built = {}

    def get(circuit: str):
        if circuit not in built:
            netlist = generate_die(die_profile(circuit, 1), seed=2019)
            place_die(netlist)
            stitch_scan_chains(netlist)
            problem = build_problem(netlist, already_prepared=True)
            clock = tight_clock_for(problem)
            built[circuit] = (
                problem, problem.retime(clock),
                Scenario.performance_optimized(clock.period_ps))
        return built[circuit]

    return get


def verdict_digest(problem, config) -> tuple:
    digest = hashlib.sha256()
    pairs = admitted = 0
    for kind in (PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND):
        pair_log = {}
        build_wcm_graph(problem, kind, list(problem.scan_ffs), config,
                        pair_log=pair_log)
        for (name_a, name_b, a_is_ff), outcome in pair_log.items():
            if outcome is _REJ_DISTANCE:
                continue
            pairs += 1
            verdict = 0 if outcome is _REJ_TIMING else 1
            admitted += verdict
            digest.update(f"{kind.name}|{name_a}|{name_b}|{int(a_is_ff)}|"
                          f"{verdict}\n".encode())
    return pairs, admitted, digest.hexdigest()


@pytest.mark.parametrize("key", list(GOLDEN),
                         ids=["-".join(key) for key in GOLDEN])
def test_pair_verdicts_match_golden(key, problems):
    circuit, method, scenario_name = key
    area_problem, tight_problem, tight = problems(circuit)
    if scenario_name == "tight":
        problem, scenario = tight_problem, tight
    else:
        problem, scenario = area_problem, Scenario.area_optimized()
    config = _METHODS[method](scenario)
    assert verdict_digest(problem, config) == GOLDEN[key]
