"""Golden digest of every Algorithm 2 partition, plus a dense-graph
differential against the reference loop.

For each die, method and scenario, both TSV kinds are built the way
:func:`run_wcm_flow` builds them (one model and, for the proposed
method, one testability estimator shared by both kinds) and
partitioned with :func:`partition_cliques`. The digest hashes every
clique in order: its ``tsvs`` in order, its FF and its timing state,
then the merge, rejected-merge and singleton-rescue counters. The
digests were recorded while Algorithm 2 still re-sampled the chosen
node's 64 smallest neighbour ids with ``heapq.nsmallest`` on every
iteration, before the sample was carried across rejected merges.

The digests pin the over-64 sample path only through recorded
outcomes. Three seeded synthetic graphs (every degree above 64, groups
of at most three TSVs, a seeded veto on merges, so rejections chain)
compare it against :func:`oracle_partition_cliques` directly, in well
under a second each.
"""

import hashlib
import random
import zlib

import pytest

from repro.bench.generator import generate_die
from repro.bench.itc99 import die_profile
from repro.core.clique import _state_key, partition_cliques
from repro.core.config import Scenario, WcmConfig
from repro.core.graph import WcmGraph, build_wcm_graph
from repro.core.problem import build_problem, tight_clock_for
from repro.core.testability import OverlapTestabilityEstimator
from repro.core.timing_model import CliqueTimingState, ReuseTimingModel
from repro.dft.scan import stitch_scan_chains
from repro.netlist.core import PortKind
from repro.place.placer import place_die
from repro.verify.oracles import oracle_partition_cliques, partition_key

#: (die, method, scenario) -> (cliques over both kinds, merges,
#: rejected merges, singleton rescues, sha256 of the partitions)
GOLDEN = {
    ('b12', 'agrawal', 'tight'): (40, 78, 58, 0, 'ab333a6d1d2e6c491b11a61ad06b9f0475069ec3469474aacc9cd2c84a192204'),
    ('b12', 'agrawal', 'area'): (38, 80, 0, 0, '0e684c3f2444e739af8a94d1cd364c2859f5f4682e1e700f25769c5a42616599'),
    ('b12', 'ours', 'tight'): (39, 79, 127, 0, 'a11499c02f6706e59265eccd341ca02dd54ca9a8dcb4dd0c762c7c3ae5fafdf0'),
    ('b12', 'ours', 'area'): (36, 82, 0, 0, '9e3ae20489233b6ad8718ce9059a229596908943b9db4f62c6db19ee693cd473'),
    ('b20', 'agrawal', 'tight'): (259, 1339, 67345, 0, '5eb22f32e2a5f4e897a361bef4126518cce33c639613df8c9855abc1823de562'),
    ('b20', 'agrawal', 'area'): (259, 1339, 66867, 0, '1f9a0aff76b4cbf68e39785d460f377a159ff9a64dac2f2453f191794743612a'),
    ('b20', 'ours', 'tight'): (464, 1103, 43689, 0, '36afe844fe1931a7ce7bdda386d5a01f367db85135aa275d65d49f7353cb1445'),
    ('b20', 'ours', 'area'): (259, 1339, 68406, 0, 'a7fa434096f9afe8cc47bbba107210da1e5aa9595a3e8f8a0277532d08174821'),
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


def partition_digest(problem, config) -> tuple:
    model = ReuseTimingModel(problem, config)
    estimator = (OverlapTestabilityEstimator(problem, config)
                 if config.allow_overlap else None)
    digest = hashlib.sha256()
    cliques = merges = rejected = rescued = 0
    for kind in (PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND):
        graph = build_wcm_graph(problem, kind, list(problem.scan_ffs),
                                config, model, estimator)
        partition = partition_cliques(graph, model)
        for clique in partition.cliques:
            state = (None if clique.state is None
                     else _state_key(clique.state))
            digest.update(f"{kind.name}|{','.join(clique.tsvs)}|"
                          f"{clique.ff}|{state!r}\n".encode())
        digest.update(f"{partition.merges}|{partition.rejected_merges}|"
                      f"{partition.singleton_rescues}\n".encode())
        cliques += len(partition.cliques)
        merges += partition.merges
        rejected += partition.rejected_merges
        rescued += partition.singleton_rescues
    return cliques, merges, rejected, rescued, digest.hexdigest()


@pytest.mark.parametrize("key", list(GOLDEN),
                         ids=["-".join(key) for key in GOLDEN])
def test_partitions_match_golden(key, problems):
    circuit, method, scenario_name = key
    area_problem, tight_problem, tight = problems(circuit)
    if scenario_name == "tight":
        problem, scenario = tight_problem, tight
    else:
        problem, scenario = area_problem, Scenario.area_optimized()
    config = _METHODS[method](scenario)
    assert partition_digest(problem, config) == GOLDEN[key]


class _VetoModel:
    """The two model calls Algorithm 2 makes: groups of at most
    *max_group_size* TSVs, at most one FF, and about one merge in
    *veto* refused by a hash of its members (stable across hash
    seeds)."""

    def __init__(self, max_group_size: int, veto: int) -> None:
        self.max_group_size = max_group_size
        self.veto = veto

    def initial_state(self, name, kind, is_ff):
        return CliqueTimingState(kind=kind, members=() if is_ff else (name,),
                                 anchor=(0.0, 0.0), has_ff=is_ff,
                                 ff_name=name if is_ff else None)

    def merged_state(self, a, b):
        if a.has_ff and b.has_ff:
            return None
        members = a.members + b.members
        if len(members) > self.max_group_size:
            return None
        if zlib.crc32("|".join(sorted(members)).encode()) % self.veto == 0:
            return None
        return CliqueTimingState(kind=a.kind, members=members,
                                 anchor=a.anchor,
                                 has_ff=a.has_ff or b.has_ff,
                                 ff_name=a.ff_name or b.ff_name)


def dense_graph(seed: int, tsvs: int = 280, ffs: int = 20,
                density: float = 0.7) -> WcmGraph:
    rng = random.Random(seed)
    nodes = [f"ff{i}" for i in range(ffs)] + [f"t{i}" for i in range(tsvs)]
    is_ff = {name: name.startswith("ff") for name in nodes}
    adjacency = {name: set() for name in nodes}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if not (is_ff[a] and is_ff[b]) and rng.random() < density:
                adjacency[a].add(b)
                adjacency[b].add(a)
    return WcmGraph(kind=PortKind.TSV_OUTBOUND, nodes=nodes, is_ff=is_ff,
                    adjacency=adjacency, excluded_tsvs=[])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_graph_matches_reference(seed):
    graph = dense_graph(seed)
    assert min(len(n) for n in graph.adjacency.values()) > 64
    model = _VetoModel(max_group_size=3, veto=2)
    partition = partition_cliques(graph, model)
    # Rejections chain on nodes whose sample is a strict subset of
    # their neighbourhood.
    assert partition.rejected_merges > 5 * partition.merges
    reference = partition_key(oracle_partition_cliques(graph, model))
    assert partition_key(partition) == reference
    memo = {}
    for _ in range(2):  # cold, then every merge answered by the memo
        assert partition_key(
            partition_cliques(graph, model, merge_memo=memo)) == reference
