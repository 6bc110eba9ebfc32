"""Heuristic clique partitioning — Algorithm 2 of the paper.

Start with every node a singleton clique. Repeatedly take the
minimum-degree node with non-zero degree and its minimum-degree
neighbour; if the merged wrapper stays legal (the paper's
``cap + 1 < cap_th`` test, generalized by
:meth:`~repro.core.timing_model.ReuseTimingModel.merged_state` to the
accurate load/slack bookkeeping), merge them into one clique whose
neighbourhood is the *intersection* of the two neighbourhoods (keeping
the partition's clique invariant); otherwise delete the edge. Stop when
no edges remain.

Selection rule (DESIGN.md §4): n1 is popped from a lazy min-degree heap
of ``(degree, id)`` whose stale entries are re-pushed with the current
degree; n2 is the minimum ``(degree, id)`` among the ``SAMPLE`` (64)
smallest neighbour ids of n1. That sample is carried across rejected
merges (:class:`_NeighbourSample`) and rebuilt only when a different n1
is picked or a merge happens, which chooses exactly what a fresh
``heapq.nsmallest`` per iteration would
(:func:`repro.verify.oracles.oracle_partition_cliques`).

Minimizing cliques minimizes additional wrapper cells: every clique
without a scan FF needs one new cell, and the number of FF cliques is
fixed.
"""

from __future__ import annotations

import dataclasses
import heapq
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.graph import WcmGraph
from repro.core.timing_model import CliqueTimingState, ReuseTimingModel
from repro.netlist.core import PortKind
from repro.runtime import instrument, trace


@dataclass
class Clique:
    """One clique of the final partition."""

    kind: PortKind
    tsvs: List[str]
    ff: Optional[str] = None
    #: load/slack bookkeeping carried out of Algorithm 2 (used by the
    #: FF-adoption phase, DESIGN.md §4)
    state: Optional[CliqueTimingState] = None

    @property
    def is_reuse(self) -> bool:
        return self.ff is not None and bool(self.tsvs)


@dataclass
class CliquePartition:
    """Result of Algorithm 2 on one graph."""

    kind: PortKind
    cliques: List[Clique]
    #: merge attempts rejected by the capacity/slack test
    rejected_merges: int = 0
    merges: int = 0
    #: merges contributed by the singleton-rescue pass (also included
    #: in ``merges``); carried so an incremental re-partition can
    #: re-emit the same counters without re-running Algorithm 2
    singleton_rescues: int = 0

    @property
    def reused_ff_count(self) -> int:
        return sum(1 for c in self.cliques if c.is_reuse)

    @property
    def additional_cells(self) -> int:
        """Cliques holding TSVs but no FF (excluded TSVs counted later)."""
        return sum(1 for c in self.cliques if c.tsvs and c.ff is None)


_STATE_GETTER = operator.attrgetter(
    *(f.name for f in dataclasses.fields(CliqueTimingState)))


def _state_key(state: CliqueTimingState) -> tuple:
    """Hashable identity of a clique timing state (all fields are
    floats, strings, tuples or enums — no nesting, so a flat attribute
    tuple equals ``dataclasses.astuple`` at a fraction of the cost)."""
    return _STATE_GETTER(state)


def _merged_state_fn(model: ReuseTimingModel,
                     merge_memo: Optional[Dict]) -> Callable:
    """``merged_state`` with an optional cross-run memo.

    ``merged_state`` is pure in its two state arguments plus session-
    constant configuration (``max_group_size``, ``cap_th``, ``s_th``,
    library caps, the wire model), so outcomes can be memoized on the
    state *values* and shared across re-partitions — states embed every
    timing quantity the check reads, so a stale-timing hit is
    impossible. Result states are never mutated after partitioning, so
    sharing the memoized objects is safe.
    """
    if merge_memo is None:
        return model.merged_state

    def merged(a: CliqueTimingState, b: CliqueTimingState):
        key = (_state_key(a), _state_key(b))
        try:
            return merge_memo[key]
        except KeyError:
            result = model.merged_state(a, b)
            merge_memo[key] = result
            return result

    return merged


#: n2 is chosen among the SAMPLE smallest neighbour ids of n1
SAMPLE = 64


class _NeighbourSample:
    """The current n1's ``SAMPLE`` smallest neighbour ids, as a heap of
    ``(degree, id)`` whose top is n2.

    A rejected merge of (n1, n2) changes the degree of n1 and n2 only;
    n1 is not in its own sample and n2 leaves it, so every key left in
    the heap is still exact. Popping n2 and pushing n1's next
    neighbour id keeps the sample equal to a fresh one, so it is
    carried until a different n1 is picked or a merge changes the
    neighbourhoods.
    """

    __slots__ = ("adjacency", "degree", "owner", "heap", "ids", "cursor")

    def __init__(self, adjacency: List[Optional[Set[int]]],
                 degree: List[int]) -> None:
        self.adjacency = adjacency
        self.degree = degree
        self.owner = -1
        self.heap: List[Tuple[int, int]] = []
        #: the owner's neighbour ids, ascending, when the sample was built
        self.ids: List[int] = []
        #: position in ``ids`` of the next id to sample
        self.cursor = 0

    def pick(self, n1: int) -> int:
        """n2: the minimum (degree, id) among n1's sampled ids."""
        if n1 != self.owner:
            ids = sorted(self.adjacency[n1])
            degree = self.degree
            heap = [(degree[c], c) for c in ids[:SAMPLE]]
            heapq.heapify(heap)
            self.heap, self.ids, self.cursor = heap, ids, len(heap)
            self.owner = n1
        return self.heap[0][1]

    def rejected(self) -> None:
        """The owner lost its edge to the heap top: replace the top by
        the owner's next neighbour id, if any. While the sample is
        carried only sampled ids lose their edge to the owner, so the
        ids past the cursor are neighbours still."""
        ids = self.ids
        if self.cursor < len(ids):
            nxt = ids[self.cursor]
            heapq.heapreplace(self.heap, (self.degree[nxt], nxt))
            self.cursor += 1
        else:
            heapq.heappop(self.heap)

    def merged(self, new_id: int) -> None:  # noqa: ARG002
        """The owner merged into *new_id*: its neighbours' degrees
        changed, so the next pick builds a fresh sample."""
        self.owner = -1


def partition_cliques(graph: WcmGraph, model: ReuseTimingModel,
                      merge_memo: Optional[Dict] = None
                      ) -> CliquePartition:
    """Run Algorithm 2 on *graph* with merge checks from *model*.

    *merge_memo* (a plain dict owned by the caller) memoizes
    ``merged_state`` outcomes across repeated partitions — see
    :func:`_merged_state_fn`; results are byte-identical with or
    without it.
    """
    merged_state = _merged_state_fn(model, merge_memo)
    # Clique state, indexed by an integer id; a merged-away clique's
    # adjacency is None.
    members: List[List[str]] = []
    ff_of: List[Optional[str]] = []
    states: List[Optional[CliqueTimingState]] = []
    adjacency: List[Optional[Set[int]]] = [None] * len(graph.nodes)

    id_of_node: Dict[str, int] = {}
    for index, name in enumerate(graph.nodes):
        id_of_node[name] = index
        is_ff = graph.is_ff[name]
        members.append([] if is_ff else [name])
        ff_of.append(name if is_ff else None)
        states.append(model.initial_state(name, graph.kind, is_ff))
    for name, neighbours in graph.adjacency.items():
        adjacency[id_of_node[name]] = {id_of_node[n] for n in neighbours}
    degree = [len(neigh) if neigh else 0 for neigh in adjacency]
    sample = _NeighbourSample(adjacency, degree)

    rejected = 0
    merges = 0

    # Lazy min-degree heap over (degree, id).
    heap: List[Tuple[int, int]] = [
        (d, cid) for cid, d in enumerate(degree) if d
    ]
    heapq.heapify(heap)

    heappush, heappop = heapq.heappush, heapq.heappop

    def push(cid: int) -> None:
        if degree[cid]:
            heappush(heap, (degree[cid], cid))

    while heap:
        popped, n1 = heappop(heap)
        neigh1 = adjacency[n1]
        if neigh1 is None:
            continue  # stale: merged away
        current = degree[n1]
        if current == 0:
            continue
        if popped != current:
            heappush(heap, (current, n1))
            continue

        # Minimum-degree neighbour among the SAMPLE smallest neighbour
        # ids (an exact min over thousands of candidates per iteration
        # would make dense graphs quadratic; smallest ids, not "first
        # seen", so the choice never depends on set iteration order).
        n2 = sample.pick(n1)
        neigh2 = adjacency[n2]

        merged = merged_state(states[n1], states[n2])
        if merged is None:
            rejected += 1
            neigh1.discard(n2)
            neigh2.discard(n1)
            degree[n1] = len(neigh1)
            degree[n2] = len(neigh2)
            push(n1)
            push(n2)
            sample.rejected()
            continue

        # Merge n1 and n2 into n'.
        merges += 1
        new_id = len(adjacency)
        common = (neigh1 & neigh2) - {n1, n2}
        members.append(members[n1] + members[n2])
        ff_of.append(ff_of[n1] or ff_of[n2])
        states.append(merged)
        adjacency.append(set(common))
        degree.append(len(common))

        # Adjacency is symmetric, so every neighbour loses one edge.
        for cid in neigh1:
            if cid != n1 and cid != n2:
                adjacency[cid].discard(n1)
                degree[cid] -= 1
        for cid in neigh2:
            if cid != n1 and cid != n2:
                adjacency[cid].discard(n2)
                degree[cid] -= 1
        for cid in common:
            adjacency[cid].add(new_id)
            degree[cid] += 1
            heappush(heap, (degree[cid], cid))
        adjacency[n1] = adjacency[n2] = None
        states[n1] = states[n2] = None
        push(new_id)
        sample.merged(new_id)
        # Nodes that lost an edge need their heap entries refreshed.
        # (Stale entries are skipped lazily on pop.)

    cliques: List[Clique] = []
    for cid, member_list in enumerate(members):
        if adjacency[cid] is None:
            continue  # merged away
        cliques.append(Clique(kind=graph.kind, tsvs=list(member_list),
                              ff=ff_of[cid], state=states[cid]))

    rescued = _absorb_singletons(graph, merged_state, cliques)
    merges += rescued

    instrument.count("clique.merges", merges)
    instrument.count("clique.rejected_merges", rejected)
    instrument.count("clique.singleton_rescues", rescued)
    if trace.active() is not None:
        for clique in cliques:
            trace.observe("clique.size", len(clique.tsvs))

    return CliquePartition(kind=graph.kind, cliques=cliques,
                           rejected_merges=rejected, merges=merges,
                           singleton_rescues=rescued)


def _absorb_singletons(graph: WcmGraph, merged_state: Callable,
                       cliques: List[Clique]) -> int:
    """Second-chance pass: Algorithm 2's intersection adjacency loses
    information as cliques form, stranding nodes whose merged
    neighbours disappeared. Re-check stranded small cliques against the
    ORIGINAL graph: a clique may absorb another when every cross pair
    is an original edge and the merged load/slack state stays legal.
    The clique property is preserved exactly."""
    adjacency = graph.adjacency
    merges = 0
    # Smallest donors first; try absorbing them into any compatible host.
    order = sorted(range(len(cliques)),
                   key=lambda i: (len(cliques[i].tsvs),
                                  cliques[i].ff is not None))
    absorbed: set = set()
    for donor_index in order:
        donor = cliques[donor_index]
        if donor_index in absorbed or not donor.tsvs or donor.state is None:
            continue
        if len(donor.tsvs) > 2:
            continue  # only rescue the stragglers
        donor_nodes = list(donor.tsvs) + ([donor.ff] if donor.ff else [])
        for host_index, host in enumerate(cliques):
            if host_index == donor_index or host_index in absorbed:
                continue
            if not host.tsvs or host.state is None:
                continue
            if donor.ff is not None and host.ff is not None:
                continue
            host_nodes = list(host.tsvs) + ([host.ff] if host.ff else [])
            if not all(b in adjacency.get(a, ())
                       for a in donor_nodes for b in host_nodes):
                continue
            merged = merged_state(host.state, donor.state)
            if merged is None:
                continue
            host.tsvs.extend(donor.tsvs)
            host.ff = host.ff or donor.ff
            host.state = merged
            donor.tsvs = []
            donor.ff = None
            absorbed.add(donor_index)
            merges += 1
            break
    cliques[:] = [c for c in cliques if c.tsvs or c.ff]
    return merges


def repartition(graph: WcmGraph, model: ReuseTimingModel,
                dirty_nodes: Set[str], frozen: CliquePartition,
                merge_memo: Optional[Dict] = None) -> CliquePartition:
    """Incremental entry point for ECO sessions.

    When the edit left the sharing graph untouched (*dirty_nodes* is
    empty and the rebuilt *graph* matches the one *frozen* was computed
    from), Algorithm 2 would reproduce *frozen* exactly — so skip it and
    re-emit the same counters/observations from the frozen partition.
    Any dirty node invalidates the greedy merge order globally (the
    min-degree heap is sequential), so a non-empty dirty set falls back
    to a full re-run of Algorithm 2, accelerated by *merge_memo* which
    short-circuits the load/slack checks for state pairs already decided
    in previous partitions.
    """
    if not dirty_nodes:
        instrument.count("clique.merges", frozen.merges)
        instrument.count("clique.rejected_merges", frozen.rejected_merges)
        instrument.count("clique.singleton_rescues",
                         frozen.singleton_rescues)
        if trace.active() is not None:
            for clique in frozen.cliques:
                trace.observe("clique.size", len(clique.tsvs))
        cliques = [Clique(kind=c.kind, tsvs=list(c.tsvs), ff=c.ff,
                          state=c.state)
                   for c in frozen.cliques]
        return CliquePartition(kind=frozen.kind, cliques=cliques,
                               rejected_merges=frozen.rejected_merges,
                               merges=frozen.merges,
                               singleton_rescues=frozen.singleton_rescues)
    return partition_cliques(graph, model, merge_memo=merge_memo)
