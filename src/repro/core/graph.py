"""WCM graph construction — Algorithm 1 of the paper.

Nodes: available scan FFs plus the TSVs of one direction that pass the
node filters (``cap_th`` for inbound load, ``s_th`` for outbound
slack). Filtered-out TSVs are recorded; they receive dedicated wrapper
cells and count toward the additional-cell total.

Edges (at least one endpoint a TSV, never FF–FF):

1. ``distance(n1, n2) < d_th`` (ours only — [4] has no distance limit),
2. the method's timing model admits the pair,
3. cones non-overlapped — tested with per-node cone *bitsets*, so the
   O(n²) pair sweep costs one big-int AND per pair — or, when
   overlapped and ``allow_overlap`` is set, the ATPG-backed estimate
   stays within ``cov_th``/``p_th``.

The returned :class:`WcmGraph` carries rejection statistics for the
Fig. 7 edge-count analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.config import WcmConfig
from repro.core.problem import WcmProblem
from repro.core.testability import OverlapTestabilityEstimator
from repro.core.timing_model import ReuseTimingModel
from repro.netlist.core import PortKind
from repro.runtime import instrument, trace


#: Relative bucket offsets scanned around a node's bucket by the
#: grid-indexed sweep. Module-level so the verification mutants can
#: patch it (dropping an offset must be caught by the fuzzer).
_GRID_OFFSETS: Tuple[int, ...] = (-1, 0, 1)


@dataclass
class GraphStats:
    """Why edges exist / were rejected (feeds Fig. 7 and Table V)."""

    nodes: int = 0
    ff_nodes: int = 0
    tsv_nodes: int = 0
    excluded_tsvs: int = 0
    edges: int = 0
    #: edges admitted despite overlapped cones (the paper's expansion)
    overlap_edges: int = 0
    rejected_distance: int = 0
    rejected_timing: int = 0
    rejected_overlap: int = 0
    rejected_testability: int = 0


@dataclass
class WcmGraph:
    """The sharing graph for one TSV direction."""

    kind: PortKind
    nodes: List[str]
    is_ff: Dict[str, bool]
    adjacency: Dict[str, Set[str]]
    excluded_tsvs: List[str]
    stats: GraphStats = field(default_factory=GraphStats)

    @property
    def edge_count(self) -> int:
        return sum(len(n) for n in self.adjacency.values()) // 2


def _cone_bitsets(problem: WcmProblem, names: Sequence[str], kind: PortKind
                  ) -> Dict[str, int]:
    """Cone-as-bitset per node: one shared bit index per object name.

    Cones depend only on the (immutable) die topology, so bitsets are
    cached on the problem per TSV direction and shared across repeated
    graph builds (methods, retimes, clique restarts). The bit index
    grows incrementally with newly seen nodes; only AND-emptiness is
    ever consumed, which is invariant to bit assignment.
    """
    index, bitsets = problem.cone_bitset_cache.setdefault(kind, ({}, {}))
    out: Dict[str, int] = {}
    for name in names:
        value = bitsets.get(name)
        if value is None:
            instrument.count("graph.cone_bitset_builds")
            cone = problem.cones.gate_cone(name, kind)
            value = 0
            for item in cone:
                bit = index.get(item)
                if bit is None:
                    bit = len(index)
                    index[item] = bit
                value |= (1 << bit)
            bitsets[name] = value
        out[name] = value
    return out


def _bucket_candidates(tsvs: Sequence[str], location_of, d_th: float):
    """The grid sweep's candidate generator: a spatial hash bucketed at
    cell size ``d_th`` and a function mapping a node name to the TSV
    indices in its 3x3 bucket neighbourhood (ascending). Shared by the
    grid-indexed sweep and the brute-force path's counter parity."""
    inv_cell = 1.0 / d_th

    def bucket_of(name: str) -> Tuple[int, int]:
        x, y = location_of(name)
        return (math.floor(x * inv_cell), math.floor(y * inv_cell))

    buckets: Dict[Tuple[int, int], List[int]] = {}
    for j, tsv in enumerate(tsvs):
        buckets.setdefault(bucket_of(tsv), []).append(j)

    def candidates(name: str) -> List[int]:
        bx, by = bucket_of(name)
        found: List[int] = []
        for dx in _GRID_OFFSETS:
            for dy in _GRID_OFFSETS:
                hit = buckets.get((bx + dx, by + dy))
                if hit:
                    found.extend(hit)
        found.sort()
        return found

    return candidates


def effective_d_th(problem: WcmProblem, config: WcmConfig) -> float:
    """Resolve d_th: explicit um value, or a fraction of die span."""
    if math.isfinite(config.d_th_um) or config.d_th_fraction is None:
        return config.d_th_um
    xs = [p.x for p in problem.netlist.ports.values()]
    ys = [p.y for p in problem.netlist.ports.values()]
    if not xs:
        return config.d_th_um
    span = (max(xs) - min(xs)) + (max(ys) - min(ys))
    return config.d_th_fraction * span


#: edge-memo outcome sentinels (the fourth outcome is an
#: :class:`OverlapEstimate`, kept so threshold re-tunes re-apply
#: ``within`` without re-estimating). ``_REJ_DISTANCE`` appears only
#: in pair logs — distance is re-checked on every build, never
#: memoized.
_EDGE = "edge"
_REJ_TIMING = "timing"
_REJ_OVERLAP = "overlap"
_REJ_DISTANCE = "distance"


def pair_rules(problem: WcmProblem, config: WcmConfig,
               model: ReuseTimingModel,
               estimator: Optional[OverlapTestabilityEstimator],
               cones: Dict[str, int], kind: PortKind, d_th: float,
               check_distance: bool, edge_memo: Optional[Dict] = None):
    """Algorithm 1's edge rules for one graph build, as
    ``row_outcomes(name_a, record_a, a_is_ff, names_b, records_b)``:
    the outcome of each pair (*name_a*, *names_b[k]*) — a sentinel or
    the pair's :class:`OverlapEstimate` — given the endpoints' timing
    records. Each pair's distance is computed once, for the distance
    test and the timing kernel. Shared by the full sweep and the
    session's incremental replay so both apply identical rules."""
    share = model.pair_kernel(kind, ff_pair=False)
    reuse = model.pair_kernel(kind, ff_pair=True)
    estimate_overlap = config.allow_overlap and estimator is not None

    def row_outcomes(name_a: str, record_a, a_is_ff: bool,
                     names_b: Sequence[str], records_b: Sequence) -> List:
        kernel = reuse if a_is_ff else share
        ax, ay = record_a.location
        cone_a = cones[name_a]
        outcomes: List = []
        append = outcomes.append
        for name_b, record_b in zip(names_b, records_b):
            bx, by = record_b.location
            dist = abs(ax - bx) + abs(ay - by)
            if check_distance and dist >= d_th:
                append(_REJ_DISTANCE)
                continue
            if edge_memo is not None:
                key = (kind, name_a, name_b, a_is_ff)
                result = edge_memo.get(key)
                if result is not None:
                    append(result)
                    continue
            if not kernel(record_a, record_b, dist):
                result = _REJ_TIMING
            elif cone_a & cones[name_b] == 0:
                result = _EDGE
            elif not a_is_ff or not estimate_overlap:
                # The paper's relaxation (Fig. 4) concerns reusing a
                # *scan FF* despite overlapped cones; TSV-TSV sharing
                # keeps the strict non-overlap rule in every method.
                result = _REJ_OVERLAP
            else:
                overlap = problem.cones.overlap(name_a, name_b, kind)
                result = estimator.estimate(name_a, name_b, kind, overlap)
            if edge_memo is not None:
                edge_memo[key] = result
            append(result)
        return outcomes

    return row_outcomes


def apply_outcomes(pairs: Iterable[Tuple[str, str, object]],
                   adjacency: Dict[str, Set[str]], stats: GraphStats,
                   config: WcmConfig) -> None:
    """Fold ``(name_a, name_b, outcome)`` pair outcomes into
    adjacency/statistics — the single place edges, rejection counts and
    coverage-drop observations are produced, for both the full sweep
    and the incremental replay."""
    edges = 0
    for name_a, name_b, outcome in pairs:
        if outcome is _EDGE:
            adjacency[name_a].add(name_b)
            adjacency[name_b].add(name_a)
            edges += 1
        elif outcome is _REJ_DISTANCE:
            stats.rejected_distance += 1
        elif outcome is _REJ_TIMING:
            stats.rejected_timing += 1
        elif outcome is _REJ_OVERLAP:
            stats.rejected_overlap += 1
        else:
            if trace.active() is not None:
                trace.observe("graph.coverage_drop", outcome.coverage_drop)
            if outcome.within(config.cov_th, config.p_th):
                adjacency[name_a].add(name_b)
                adjacency[name_b].add(name_a)
                edges += 1
                stats.overlap_edges += 1
            else:
                stats.rejected_testability += 1
    stats.edges += edges


def build_wcm_graph(problem: WcmProblem, kind: PortKind,
                    available_ffs: Sequence[str], config: WcmConfig,
                    timing_model: Optional[ReuseTimingModel] = None,
                    estimator: Optional[OverlapTestabilityEstimator] = None,
                    use_grid: bool = True,
                    edge_memo: Optional[Dict] = None,
                    pair_log: Optional[Dict] = None) -> WcmGraph:
    """Algorithm 1: build the sharing graph for one TSV direction.

    When the distance limit is active the pair sweep is grid-indexed: a
    spatial hash bucketed at ``d_th`` yields the candidate pairs (a
    superset of all pairs with Manhattan distance < ``d_th``), and the
    pairs in non-neighbouring buckets are charged to
    ``rejected_distance`` arithmetically. Candidate pairs still run the
    exact distance check, so edges, statistics and estimator call order
    are identical to the brute-force sweep (``use_grid=False``).

    *edge_memo* (a caller-owned dict, used by ECO sessions) memoizes
    each candidate pair's post-distance outcome — timing rejection,
    cone-overlap rejection, clean edge, or the testability estimate —
    keyed by ``(kind, name_a, name_b, a_is_ff)``. The caller must drop
    every entry touching a node whose position, timing signature or
    cone changed. Distance is never memoized (position-dependent and
    cheap) and estimates are stored as values, so ``d_th``/``cov_th``
    re-tunes stay correct without invalidation; coverage-drop
    observations are re-emitted on hits, keeping stats, counters and
    manifests byte-identical to an unmemoized build.

    *pair_log*, when given, records every visited candidate pair as
    ``(name_a, name_b, a_is_ff) -> outcome`` (including exact-distance
    rejections) — the session's incremental replay re-derives the next
    build from it by re-considering only pairs touching dirty nodes.
    """
    model = timing_model or ReuseTimingModel(problem, config)
    stats = GraphStats()

    # ---- node construction --------------------------------------------
    tsvs: List[str] = []
    excluded: List[str] = []
    for tsv in problem.tsvs_of_kind(kind):
        if kind is PortKind.TSV_INBOUND:
            eligible = model.inbound_node_eligible(tsv)
        else:
            eligible = model.outbound_node_eligible(tsv)
        (tsvs if eligible else excluded).append(tsv)

    ffs = list(available_ffs)
    nodes = ffs + tsvs
    is_ff = {name: True for name in ffs}
    is_ff.update({name: False for name in tsvs})
    adjacency: Dict[str, Set[str]] = {name: set() for name in nodes}

    stats.ff_nodes = len(ffs)
    stats.tsv_nodes = len(tsvs)
    stats.nodes = len(nodes)
    stats.excluded_tsvs = len(excluded)

    cones = _cone_bitsets(problem, nodes, kind)
    d_th = effective_d_th(problem, config)
    # d_th guards wire delay and routing congestion; the unconstrained
    # area scenario imposes neither.
    check_distance = math.isfinite(d_th) and config.scenario.is_timed

    # ---- edge construction ----------------------------------------------
    row_outcomes = pair_rules(problem, config, model, estimator, cones,
                              kind, d_th, check_distance, edge_memo)
    tsv_records = [model.tsv_record(tsv) for tsv in tsvs]

    def sweep_row(name_a: str, record_a, a_is_ff: bool,
                  names_b: Sequence[str], records_b: Sequence) -> None:
        outcomes = row_outcomes(name_a, record_a, a_is_ff, names_b,
                                records_b)
        if pair_log is not None:
            for name_b, outcome in zip(names_b, outcomes):
                pair_log[(name_a, name_b, a_is_ff)] = outcome
        apply_outcomes(zip(repeat(name_a), names_b, outcomes), adjacency,
                       stats, config)

    total_pairs = len(tsvs) * (len(tsvs) - 1) // 2 + len(ffs) * len(tsvs)
    if not (check_distance and use_grid):
        for i, tsv_a in enumerate(tsvs):
            sweep_row(tsv_a, tsv_records[i], False, tsvs[i + 1:],
                      tsv_records[i + 1:])
        for ff in ffs:
            sweep_row(ff, model.ff_record(ff), True, tsvs, tsv_records)
        # Counter parity with the grid-indexed path (so `repro trace
        # diff` sees no drift between modes): report the candidate/
        # skipped split the grid sweep would have produced over the
        # same geometry. With no distance check there is no grid — the
        # sweep visits every pair; with one, recount the 3x3 bucket
        # candidates without re-running any feasibility work.
        if not check_distance:
            candidate_pairs = total_pairs
        elif d_th <= 0.0:
            candidate_pairs = 0
        else:
            candidates = _bucket_candidates(tsvs, problem.location_of, d_th)
            candidate_pairs = sum(
                sum(1 for j in candidates(tsv_a) if j > i)
                for i, tsv_a in enumerate(tsvs))
            candidate_pairs += sum(len(candidates(ff)) for ff in ffs)
        instrument.count("graph.grid_candidate_pairs", candidate_pairs)
        instrument.count("graph.grid_skipped_pairs",
                         total_pairs - candidate_pairs)
    elif d_th <= 0.0:
        # distance >= d_th holds for every pair: all rejected, no sweep.
        stats.rejected_distance += total_pairs
        instrument.count("graph.grid_candidate_pairs", 0)
        instrument.count("graph.grid_skipped_pairs", total_pairs)
    else:
        # Spatial hash at cell size d_th: any pair with Manhattan
        # distance < d_th sits in the same or an adjacent bucket, so
        # the 3x3 neighbourhood is a sound candidate superset.
        candidates = _bucket_candidates(tsvs, problem.location_of, d_th)
        candidate_pairs = 0
        for i, tsv_a in enumerate(tsvs):
            columns = [j for j in candidates(tsv_a) if j > i]
            candidate_pairs += len(columns)
            sweep_row(tsv_a, tsv_records[i], False,
                      [tsvs[j] for j in columns],
                      [tsv_records[j] for j in columns])
        for ff in ffs:
            columns = candidates(ff)
            candidate_pairs += len(columns)
            sweep_row(ff, model.ff_record(ff), True,
                      [tsvs[j] for j in columns],
                      [tsv_records[j] for j in columns])
        # Pairs outside the neighbourhood have distance >= d_th by
        # construction; charge them without visiting.
        stats.rejected_distance += total_pairs - candidate_pairs
        instrument.count("graph.grid_candidate_pairs", candidate_pairs)
        instrument.count("graph.grid_skipped_pairs",
                         total_pairs - candidate_pairs)

    if trace.active() is not None:
        trace.observe("graph.edges", stats.edges)
    return WcmGraph(kind=kind, nodes=nodes, is_ff=is_ff,
                    adjacency=adjacency, excluded_tsvs=excluded,
                    stats=stats)
