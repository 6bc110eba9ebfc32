"""PODEM deterministic test generation (5-valued D-calculus).

Implements the classic PODEM search: objectives are activated/backtraced
to primary-input (scan-cell) assignments, implications run forward over
a per-fault *slice* of the circuit (the fan-in closure of the fault's
fan-out cone), and the search backtracks through the PI decision stack.
Good and faulty machines are simulated together in 3-valued logic; a
discrepancy (D/D̄) reaching an observation net is success.

The slice restriction is what keeps PODEM usable from pure Python: a
bounded-depth die has slices of a few hundred gates regardless of die
size.

Implication is incremental. Both machines live in persistent per-net
value arrays (X outside the active slice); a decision re-evaluates only
the gates its primary input can reach, in topological order, and every
overwrite goes on an undo trail, so backtracking restores the arrays by
replaying the trail back to the decision's mark. Each slice also keeps
a snapshot of its decision-free state per injected polarity, replayed
instead of re-evaluating the slice on every search. The engine is plain
Python lists.

Every sub-result (implied values, D-frontier choice, SCOAP backtrace
step) is a pure function of the current assignment, so the search —
including its backtrack count — is deterministic and independent of
the order in which faults are attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.atpg.faults import Fault, FaultKind
from repro.atpg.sim import CompiledCircuit
from repro.util.errors import AtpgError

X = 2  # unknown in 3-valued logic


def _and3(vals: Sequence[int]) -> int:
    out = 1
    for v in vals:
        if v == 0:
            return 0
        if v == X:
            out = X
    return out


def _or3(vals: Sequence[int]) -> int:
    out = 0
    for v in vals:
        if v == 1:
            return 1
        if v == X:
            out = X
    return out


def _not3(v: int) -> int:
    return X if v == X else 1 - v


def _xor3(vals: Sequence[int]) -> int:
    out = 0
    for v in vals:
        if v == X:
            return X
        out ^= v
    return out


def _eval3(op_name: str, vals: Sequence[int]) -> int:
    if op_name == "and":
        return _and3(vals)
    if op_name == "nand":
        return _not3(_and3(vals))
    if op_name == "or":
        return _or3(vals)
    if op_name == "nor":
        return _not3(_or3(vals))
    if op_name == "inv":
        return _not3(vals[0])
    if op_name == "buf":
        return vals[0]
    if op_name == "xor":
        return _xor3(vals)
    if op_name == "xnor":
        return _not3(_xor3(vals))
    if op_name == "mux2":
        a, b, s = vals
        if s == 0:
            return a
        if s == 1:
            return b
        return a if (a == b and a != X) else X
    if op_name == "aoi21":
        a1, a2, b = vals
        return _not3(_or3([_and3([a1, a2]), b]))
    if op_name == "oai21":
        a1, a2, b = vals
        return _not3(_and3([_or3([a1, a2]), b]))
    raise AtpgError(f"no 3-valued model for {op_name}")


# Small-int op codes for the implication engine: string dispatch is the
# single biggest cost of `_eval3` in the implication loop.
_C_BUF, _C_INV, _C_AND, _C_NAND, _C_OR, _C_NOR = 0, 1, 2, 3, 4, 5
_C_XOR, _C_XNOR, _C_MUX2, _C_AOI21, _C_OAI21 = 6, 7, 8, 9, 10

_OP3_CODES = {
    "buf": _C_BUF, "inv": _C_INV, "and": _C_AND, "nand": _C_NAND,
    "or": _C_OR, "nor": _C_NOR, "xor": _C_XOR, "xnor": _C_XNOR,
    "mux2": _C_MUX2, "aoi21": _C_AOI21, "oai21": _C_OAI21,
}


def _eval3_code(code: int, vals: Sequence[int]) -> int:
    """Exact mirror of :func:`_eval3` over small-int op codes."""
    if code == _C_AND or code == _C_NAND:
        out = 1
        for v in vals:
            if v == 0:
                out = 0
                break
            if v == 2:
                out = 2
        if code == _C_NAND and out != 2:
            out = 1 - out
        return out
    if code == _C_OR or code == _C_NOR:
        out = 0
        for v in vals:
            if v == 1:
                out = 1
                break
            if v == 2:
                out = 2
        if code == _C_NOR and out != 2:
            out = 1 - out
        return out
    if code == _C_INV:
        v = vals[0]
        return 2 if v == 2 else 1 - v
    if code == _C_BUF:
        return vals[0]
    if code == _C_XOR or code == _C_XNOR:
        out = 0
        for v in vals:
            if v == 2:
                return 2
            out ^= v
        if code == _C_XNOR:
            out = 1 - out
        return out
    if code == _C_MUX2:
        a, b, s = vals
        if s == 0:
            return a
        if s == 1:
            return b
        return a if (a == b and a != 2) else 2
    if code == _C_AOI21:
        a1, a2, b = vals
        return _not3(_or3((_and3((a1, a2)), b)))
    # _C_OAI21
    a1, a2, b = vals
    return _not3(_and3((_or3((a1, a2)), b)))


def _eval3_arr(code: int, ins: Sequence[int], values: List[int]) -> int:
    """:func:`_eval3_code` reading operands straight from a per-net
    value array — the implication hot path allocates no intermediate
    operand list."""
    if code == _C_AND or code == _C_NAND:
        out = 1
        for n in ins:
            v = values[n]
            if v == 0:
                out = 0
                break
            if v == 2:
                out = 2
        if code == _C_NAND and out != 2:
            out = 1 - out
        return out
    if code == _C_OR or code == _C_NOR:
        out = 0
        for n in ins:
            v = values[n]
            if v == 1:
                out = 1
                break
            if v == 2:
                out = 2
        if code == _C_NOR and out != 2:
            out = 1 - out
        return out
    if code == _C_INV:
        v = values[ins[0]]
        return 2 if v == 2 else 1 - v
    if code == _C_BUF:
        return values[ins[0]]
    if code == _C_XOR or code == _C_XNOR:
        out = 0
        for n in ins:
            v = values[n]
            if v == 2:
                return 2
            out ^= v
        if code == _C_XNOR:
            out = 1 - out
        return out
    if code == _C_MUX2:
        s = values[ins[2]]
        if s == 0:
            return values[ins[0]]
        if s == 1:
            return values[ins[1]]
        a, b = values[ins[0]], values[ins[1]]
        return a if (a == b and a != 2) else 2
    if code == _C_AOI21:
        a1, a2, b = values[ins[0]], values[ins[1]], values[ins[2]]
        if a1 == 0 or a2 == 0:
            inner = 0
        elif a1 == 2 or a2 == 2:
            inner = 2
        else:
            inner = 1
        if inner == 1 or b == 1:
            return 0
        if inner == 2 or b == 2:
            return 2
        return 1
    if code == _C_OAI21:
        a1, a2, b = values[ins[0]], values[ins[1]], values[ins[2]]
        if a1 == 1 or a2 == 1:
            inner = 1
        elif a1 == 2 or a2 == 2:
            inner = 2
        else:
            inner = 0
        if inner == 0 or b == 0:
            return 1
        if inner == 2 or b == 2:
            return 2
        return 0
    return _eval3_code(code, [values[n] for n in ins])


class _Slice:
    """Flat per-slice structures for the implication engine."""

    __slots__ = ("observable", "slice_gates", "gates", "sources", "cone",
                 "check_nets", "branch_gate", "branch_pos",
                 "site_is_source", "base", "base_nids")

    def __init__(self) -> None:
        self.observable = False
        self.slice_gates: List[int] = []
        #: (gi, code, out, ins) in slice (topological) order
        self.gates: List[Tuple[int, int, int, Tuple[int, ...]]] = []
        #: (net id, base value) for every slice source net
        self.sources: List[Tuple[int, int]] = []
        #: cone gates (gi, op_name, out, ins) in slice order, for the
        #: D-frontier scan
        self.cone: List[Tuple[int, str, int, Tuple[int, ...]]] = []
        #: observed nets the faulty machine can actually differ on
        self.check_nets: Tuple[int, ...] = ()
        self.branch_gate: Optional[int] = None
        self.branch_pos: Optional[int] = None
        self.site_is_source = False
        #: decision-free machine state, keyed by injected polarity
        #: (``None`` for the justification-only, fault-free machine):
        #: (net, good, faulty) snapshots replayed instead of a full
        #: slice re-evaluation on every search
        self.base: Dict[Optional[int], List[Tuple[int, int, int]]] = {}
        #: every net the base state writes (sources + gate outputs)
        self.base_nids: List[int] = []


#: how a search injects its fault: (faulted source net, stuck value,
#: branch gate, branch pin, faulted gate-output net); at most one of
#: the three sites is set
_Injection = Tuple[Optional[int], int, Optional[int], Optional[int],
                   Optional[int]]
_FAULT_FREE: _Injection = (None, 0, None, None, None)

#: decision-function result meaning "the goal is met"
_DONE = (-1, -1)

#: preferred side-input value that does NOT force the gate's output
_NONCONTROLLING = {
    "and": 1, "nand": 1, "or": 0, "nor": 0,
    "xor": 0, "xnor": 0, "buf": 1, "inv": 1,
    "mux2": 0, "aoi21": 0, "oai21": 1,
}


@dataclass
class PodemOutcome:
    """Result of one PODEM run."""

    status: str  # "detected" | "untestable" | "aborted"
    #: control-net assignments (net id -> 0/1), unassigned = don't-care
    assignment: Dict[int, int]
    backtracks: int


class PodemGenerator:
    """PODEM bound to one compiled circuit."""

    def __init__(self, circuit: CompiledCircuit,
                 backtrack_limit: int = 64) -> None:
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self._control: Set[int] = set(circuit.input_columns)
        #: flat (op_name, out, ins) per gate
        self._specs: List[Tuple[str, int, Tuple[int, ...]]] = [
            (g.op_name, g.out, g.ins) for g in circuit.gates
        ]
        self._cc0, self._cc1 = self._scoap()
        self._fault_slices: Dict[Tuple[str, str, str], _Slice] = {}
        self._justify_slices: Dict[int, _Slice] = {}
        #: (code, out, ins) per gate, one lookup in the propagation loop;
        #: None codes have no 3-valued model and fail at slice build
        self._gspec: List[Tuple[Optional[int], int, Tuple[int, ...]]] = [
            (_OP3_CODES.get(op), out, ins) for op, out, ins in self._specs]
        # Persistent value arrays (X between searches), the undo trail
        # of (net, old good, old faulty), and per-gate membership flags
        # for the active slice / fault cone.
        self._gv: List[int] = [X] * circuit.n_nets
        self._fv: List[int] = [X] * circuit.n_nets
        self._trail: List[Tuple[int, int, int]] = []
        self._inflag = bytearray(len(circuit.gates))
        self._conefl = bytearray(len(circuit.gates))

    # ------------------------------------------------------------------
    def _scoap(self) -> Tuple[List[int], List[int]]:
        """SCOAP combinational 0/1-controllabilities per net."""
        circuit = self.circuit
        big = 10 ** 9
        cc0 = [big] * circuit.n_nets
        cc1 = [big] * circuit.n_nets
        for nid in circuit.input_columns:
            cc0[nid] = cc1[nid] = 1
        for nid, const in circuit.constant_nets.items():
            if const:
                cc1[nid], cc0[nid] = 0, big
            else:
                cc0[nid], cc1[nid] = 0, big
        for nid in circuit.x_net_ids:
            cc0[nid], cc1[nid] = 0, big  # tied low pre-bond

        def cap(value: int) -> int:
            return min(value, big)

        for gate in circuit.gates:
            ins = gate.ins
            op = gate.op_name
            z0 = [cc0[i] for i in ins]
            z1 = [cc1[i] for i in ins]
            if op in ("and", "nand"):
                all1 = cap(sum(z1) + 1)
                any0 = cap(min(z0) + 1)
                out1, out0 = (any0, all1) if op == "nand" else (all1, any0)
            elif op in ("or", "nor"):
                any1 = cap(min(z1) + 1)
                all0 = cap(sum(z0) + 1)
                out1, out0 = (all0, any1) if op == "nor" else (any1, all0)
            elif op == "inv":
                out1, out0 = cap(z0[0] + 1), cap(z1[0] + 1)
            elif op == "buf":
                out1, out0 = cap(z1[0] + 1), cap(z0[0] + 1)
            elif op in ("xor", "xnor"):
                a0, b0 = z0[0], z0[1]
                a1, b1 = z1[0], z1[1]
                odd = cap(min(a1 + b0, a0 + b1) + 1)
                even = cap(min(a0 + b0, a1 + b1) + 1)
                out1, out0 = (even, odd) if op == "xnor" else (odd, even)
            elif op == "mux2":
                a0, b0, s0 = z0
                a1, b1, s1 = z1
                out1 = cap(min(s0 + a1, s1 + b1) + 1)
                out0 = cap(min(s0 + a0, s1 + b0) + 1)
            elif op == "aoi21":
                a10, a20, b0 = z0
                a11, a21, b1 = z1
                out1 = cap(b0 + min(a10, a20) + 1)
                out0 = cap(min(b1, a11 + a21) + 1)
            elif op == "oai21":
                a10, a20, b0 = z0
                a11, a21, b1 = z1
                out1 = cap(min(b0, a10 + a20) + 1)
                out0 = cap(b1 + min(a11, a21) + 1)
            else:
                out1 = out0 = big
            cc0[gate.out] = out0
            cc1[gate.out] = out1
        return cc0, cc1

    # ------------------------------------------------------------------
    def run(self, fault: Fault) -> PodemOutcome:
        """Attempt to generate a test for *fault*."""
        fs = self._fault_slice(fault)
        if not fs.observable and fault.kind is not FaultKind.OBS_BRANCH:
            return PodemOutcome("untestable", {}, 0)
        site_net = self.circuit.net_ids[fault.net]
        stuck = int(fault.polarity)
        if fault.kind is FaultKind.OBS_BRANCH:
            # Activation is detection: justify site = ¬stuck.
            return self._justify(fs, site_net, 1 - stuck)
        branch_gate = branch_pos = None
        if fault.kind is FaultKind.BRANCH:
            if fs.branch_gate is None:
                return PodemOutcome("untestable", {}, 0)
            branch_gate, branch_pos = fs.branch_gate, fs.branch_pos
        source_site = stem_out = None
        if branch_gate is None:
            if fs.site_is_source:
                source_site = site_net
            else:
                stem_out = site_net
        gv, fv = self._gv, self._fv

        def decide() -> Optional[Tuple[int, int]]:
            site_g = gv[site_net]
            if site_g == stuck:
                return None  # can never be activated: backtrack
            for nid in fs.check_nets:
                a, b = gv[nid], fv[nid]
                if a != X and b != X and a != b:
                    return _DONE
            objective = self._objective(fs, site_net, stuck, branch_gate,
                                        branch_pos)
            if objective is None:
                return None
            return self._backtrace(*objective)

        return self._search(fs, stuck, (source_site, stuck, branch_gate,
                                        branch_pos, stem_out), decide)

    def justify(self, net_id: int, value: int) -> PodemOutcome:
        """Justification-only search over the fan-in closure of
        *net_id*: make it take *value*. Used for transition-launch
        conditions; OBS_BRANCH faults run the same search over their
        fault slice."""
        fs = self._justify_slices.get(net_id)
        if fs is None:
            driver = self.circuit.gate_of_net.get(net_id)
            fs = self._build_slice(
                self._fanin_closure(() if driver is None else (driver,)),
                net_id)
            self._justify_slices[net_id] = fs
        return self._justify(fs, net_id, value)

    def _justify(self, fs: _Slice, net_id: int, value: int
                 ) -> PodemOutcome:
        """Good-machine search over *fs* (the faulty array mirrors it)."""
        gv = self._gv

        def decide() -> Optional[Tuple[int, int]]:
            current = gv[net_id]
            if current == value:
                return _DONE
            if current != X:
                return None  # conflict: backtrack
            return self._backtrace(net_id, value)

        return self._search(fs, None, _FAULT_FREE, decide)

    # ------------------------------------------------------------------
    def _search(self, fs: _Slice, key: Optional[int],
                inject: _Injection,
                decide: Callable[[], Optional[Tuple[int, int]]]
                ) -> PodemOutcome:
        """The PODEM decision loop over one slice.

        *decide* inspects the implied values and returns ``_DONE``, the
        next primary-input decision, or None to backtrack. *key* names
        the slice's base-state snapshot (the injected polarity, or None
        for the fault-free machine, which also leaves the fault cone
        unflagged).
        """
        gv, fv, trail = self._gv, self._fv, self._trail
        flags, conefl = self._inflag, self._conefl
        cone = fs.cone if key is not None else ()
        for gi in fs.slice_gates:
            flags[gi] = 1
        for entry in cone:
            conefl[entry[0]] = 1
        assignment: Dict[int, int] = {}
        #: (net, value, flipped, trail mark before the push)
        decisions: List[Tuple[int, int, bool, int]] = []
        backtracks = 0
        try:
            self._load_base(fs, key, inject)
            while True:
                decision = decide()
                if decision is _DONE:
                    return PodemOutcome("detected", dict(assignment),
                                        backtracks)
                if decision is not None:
                    net, value = decision
                    decisions.append((net, value, False, len(trail)))
                    assignment[net] = value
                    self._push(net, value, inject)
                    continue
                # Backtrack to the newest unflipped decision and flip it.
                while decisions:
                    net, value, flipped, mark = decisions.pop()
                    del assignment[net]
                    self._undo_to(mark)
                    if not flipped:
                        backtracks += 1
                        if backtracks > self.backtrack_limit:
                            return PodemOutcome("aborted", {}, backtracks)
                        decisions.append((net, 1 - value, True,
                                          len(trail)))
                        assignment[net] = 1 - value
                        self._push(net, 1 - value, inject)
                        break
                else:
                    return PodemOutcome("untestable", {}, backtracks)
        finally:
            self._undo_to(0)
            for nid in fs.base_nids:
                gv[nid] = X
                fv[nid] = X
            for gi in fs.slice_gates:
                flags[gi] = 0
            for entry in cone:
                conefl[entry[0]] = 0

    def _load_base(self, fs: _Slice, key: Optional[int],
                   inject: _Injection) -> None:
        """Write the decision-free state of both machines: replayed from
        the slice's snapshot for *key*, computed by full slice
        evaluation on first use. Base writes stay off the undo trail
        (the search resets them), so decision trail marks are relative
        to an empty trail."""
        gv, fv = self._gv, self._fv
        snapshot = fs.base.get(key)
        if snapshot is not None:
            for nid, g, f in snapshot:
                gv[nid] = g
                fv[nid] = f
            return
        source_site, stuck, branch_gate, branch_pos, stem_out = inject
        conefl = self._conefl
        for nid, value in fs.sources:
            gv[nid] = value
            fv[nid] = value
        if source_site is not None:
            fv[source_site] = stuck
        for gi, code, out, ins in fs.gates:
            g_out = _eval3_arr(code, ins, gv)
            if conefl[gi]:
                if gi == branch_gate:
                    vals = [fv[n] for n in ins]
                    vals[branch_pos] = stuck
                    f_out = _eval3_code(code, vals)
                else:
                    f_out = _eval3_arr(code, ins, fv)
            elif out == stem_out:
                f_out = stuck
            else:
                f_out = g_out
            gv[out] = g_out
            fv[out] = f_out
        fs.base[key] = [(nid, gv[nid], fv[nid]) for nid in fs.base_nids]

    def _undo_to(self, mark: int) -> None:
        trail = self._trail
        if len(trail) <= mark:
            return
        gv, fv = self._gv, self._fv
        for nid, old_g, old_f in reversed(trail[mark:]):
            gv[nid] = old_g
            fv[nid] = old_f
        del trail[mark:]

    # ------------------------------------------------------------------
    def _fanin_closure(self, seeds: Iterable[int]) -> List[int]:
        """*seeds* plus every gate driving them, in topological order."""
        gate_of_net = self.circuit.gate_of_net
        gates = self.circuit.gates
        closure: Set[int] = set(seeds)
        work = list(closure)
        while work:
            gi = work.pop()
            for nid in gates[gi].ins:
                drv = gate_of_net.get(nid)
                if drv is not None and drv not in closure:
                    closure.add(drv)
                    work.append(drv)
        return sorted(closure)

    def _build_slice(self, slice_gates: List[int],
                     extra_source: int) -> _Slice:
        """Flat structures for the gates of one slice; raises
        :class:`AtpgError` when a gate has no 3-valued model."""
        circuit = self.circuit
        gspec = self._gspec
        fs = _Slice()
        fs.slice_gates = slice_gates
        outs: Set[int] = set()
        gates = fs.gates
        for gi in slice_gates:
            code, out, ins = gspec[gi]
            if code is None:
                raise AtpgError(
                    f"no 3-valued model for {self._specs[gi][0]}")
            gates.append((gi, code, out, ins))
            outs.add(out)
        source_nets: Set[int] = set()
        for _gi, _code, _out, ins in gates:
            for nid in ins:
                if nid not in outs:
                    source_nets.add(nid)
        if extra_source not in outs:
            source_nets.add(extra_source)
        constants = circuit.constant_nets
        x_nets = circuit.x_net_ids
        for nid in sorted(source_nets):
            const = constants.get(nid)
            if const is not None:
                value = const
            elif nid in x_nets:
                value = 0  # tied, consistent with packed simulation
            else:
                value = X
            fs.sources.append((nid, value))
        fs.base_nids = [nid for nid, _v in fs.sources]
        fs.base_nids.extend(entry[2] for entry in gates)
        return fs

    def _fault_slice(self, fault: Fault) -> _Slice:
        """The fault's slice: the fan-in closure of its fan-out cone
        (and of the site itself), plus the cone's D-frontier data."""
        key = (fault.net, fault.owner, fault.pin)
        fs = self._fault_slices.get(key)
        if fs is not None:
            return fs
        circuit = self.circuit
        site_net = circuit.net_ids[fault.net]

        # Forward cone.
        cone_gates: Set[int] = set()
        seen_nets = {site_net}
        observes_reachable = site_net in circuit.observed
        if fault.kind is FaultKind.BRANCH:
            # Only the one sink gate sees the fault initially.
            work = [g for g in circuit.gate_users[site_net]
                    if circuit.gates[g].name == fault.owner]
        else:
            work = list(circuit.gate_users[site_net])
        while work:
            gi = work.pop()
            if gi in cone_gates:
                continue
            cone_gates.add(gi)
            out = circuit.gates[gi].out
            if out in circuit.observed:
                observes_reachable = True
            if out not in seen_nets:
                seen_nets.add(out)
                work.extend(circuit.gate_users[out])

        # Fan-in closure: side inputs and the site itself must be
        # justifiable.
        seeds = set(cone_gates)
        driver = circuit.gate_of_net.get(site_net)
        if driver is not None:
            seeds.add(driver)
        fs = self._build_slice(self._fanin_closure(seeds), site_net)
        fs.observable = observes_reachable
        specs = self._specs
        fs.cone = [(gi, specs[gi][0], specs[gi][1], specs[gi][2])
                   for gi in sorted(cone_gates)]
        diff_nets = {entry[2] for entry in fs.cone}
        diff_nets.add(site_net)
        fs.check_nets = tuple(sorted(diff_nets & circuit.observed))
        fs.site_is_source = driver is None
        if fault.kind is FaultKind.BRANCH:
            for gi in circuit.gate_users[site_net]:
                gate = circuit.gates[gi]
                if gate.name == fault.owner:
                    fs.branch_gate = gi
                    fs.branch_pos = gate.ins.index(site_net)
                    break
        self._fault_slices[key] = fs
        return fs

    # ------------------------------------------------------------------
    def _propagate(self, net: int, stuck: int, branch_gate: Optional[int],
                   branch_pos: Optional[int],
                   stem_out: Optional[int]) -> None:
        """Event-driven re-evaluation of both machines from one changed
        source net, recording every overwrite on the undo trail.

        Gates outside the fault cone read identical values in both
        machines, so the faulty machine is re-evaluated only for
        cone-flagged gates (and the stem driver's output is forced).
        """
        gv, fv, trail = self._gv, self._fv, self._trail
        gspec = self._gspec
        gate_users = self.circuit.gate_users
        flags, conefl = self._inflag, self._conefl
        heap = [gi for gi in gate_users[net] if flags[gi]]
        if not heap:
            return
        queued = set(heap)  # ascending list == already a valid heap
        pop, push, ev = heappop, heappush, _eval3_arr
        queued_add, trail_append = queued.add, trail.append
        while heap:
            gi = pop(heap)
            code, out, ins = gspec[gi]
            # The four dominant op codes are evaluated inline; the rest
            # fall through to `_eval3_arr` (identical logic either way).
            if code == _C_AND or code == _C_NAND:
                g_out = 1
                for n in ins:
                    v = gv[n]
                    if v == 0:
                        g_out = 0
                        break
                    if v == 2:
                        g_out = 2
                if code == _C_NAND and g_out != 2:
                    g_out = 1 - g_out
            elif code == _C_OR or code == _C_NOR:
                g_out = 0
                for n in ins:
                    v = gv[n]
                    if v == 1:
                        g_out = 1
                        break
                    if v == 2:
                        g_out = 2
                if code == _C_NOR and g_out != 2:
                    g_out = 1 - g_out
            elif code == _C_INV:
                v = gv[ins[0]]
                g_out = 2 if v == 2 else 1 - v
            elif code == _C_MUX2:
                v = gv[ins[2]]
                if v == 0:
                    g_out = gv[ins[0]]
                elif v == 1:
                    g_out = gv[ins[1]]
                else:
                    a = gv[ins[0]]
                    b = gv[ins[1]]
                    g_out = a if (a == b and a != 2) else 2
            else:
                g_out = ev(code, ins, gv)
            if conefl[gi]:
                if gi == branch_gate:
                    vals = [fv[n] for n in ins]
                    vals[branch_pos] = stuck
                    f_out = _eval3_code(code, vals)
                else:
                    f_out = ev(code, ins, fv)
            elif out == stem_out:
                f_out = stuck
            else:
                f_out = g_out
            old_g, old_f = gv[out], fv[out]
            if g_out == old_g and f_out == old_f:
                continue
            trail_append((out, old_g, old_f))
            gv[out] = g_out
            fv[out] = f_out
            for dep in gate_users[out]:
                if flags[dep] and dep not in queued:
                    queued_add(dep)
                    push(heap, dep)

    def _push(self, net: int, value: int, inject: _Injection) -> None:
        """Apply one PI assignment and propagate its consequences."""
        source_site, stuck, branch_gate, branch_pos, stem_out = inject
        gv, fv = self._gv, self._fv
        self._trail.append((net, gv[net], fv[net]))
        gv[net] = value
        if net != source_site:  # a faulted source stays pinned in fv
            fv[net] = value
        self._propagate(net, stuck, branch_gate, branch_pos, stem_out)

    def _objective(self, fs: _Slice, site_net: int, stuck: int,
                   branch_gate: Optional[int], branch_pos: Optional[int]
                   ) -> Optional[Tuple[int, int]]:
        """Activate the fault, else set an X side input of the first
        D-frontier gate to its non-controlling value.

        The D-frontier holds cone gates with a D/D̄ input whose output
        is unresolved in at least one machine. For a branch fault the D̄
        sits on the faulted *pin* of the branch gate, which net-level
        values cannot show.
        """
        gv, fv = self._gv, self._fv
        site_g = gv[site_net]
        if site_g == X:
            return (site_net, 1 - stuck)
        for gi, op_name, out, ins in fs.cone:
            if gv[out] != X and fv[out] != X:
                continue
            if gi == branch_gate:
                has_d = site_g != stuck
            else:
                has_d = False
                for nid in ins:
                    a = gv[nid]
                    if a != X:
                        b = fv[nid]
                        if b != X and a != b:
                            has_d = True
                            break
            if not has_d:
                continue
            for pos, nid in enumerate(ins):
                if gi == branch_gate and pos == branch_pos:
                    continue  # the faulted pin is not a side input
                if gv[nid] == X:
                    return (nid, _NONCONTROLLING[op_name])
        return None

    def _backtrace(self, net_id: int, value: int
                   ) -> Optional[Tuple[int, int]]:
        """Walk an X-path from the objective back to a control net;
        None when no X-path exists.

        Uses SCOAP guidance: "any input suffices" objectives descend
        into the cheapest X input, "all inputs required" objectives
        into the hardest one — the textbook backtrace policy.
        """
        control = self._control
        gate_of_net = self.circuit.gate_of_net.get
        gates = self.circuit.gates
        gv = self._gv
        current, target = net_id, value
        for _ in range(100000):  # cycle-free by construction
            if current in control:
                return current, target
            driver = gate_of_net(current)
            if driver is None:
                return None  # constant / X-tie: cannot justify
            gate = gates[driver]
            x_inputs = [nid for nid in gate.ins if gv[nid] == X]
            if not x_inputs:
                return None
            step = self._backtrace_step(gate, target, x_inputs)
            if step is None:
                return None
            current, target = step
        return None

    def _backtrace_step(self, gate, target: int, x_inputs: List[int]
                        ) -> Optional[Tuple[int, int]]:
        cc0, cc1 = self._cc0, self._cc1
        gv = self._gv
        op = gate.op_name

        def easiest(value: int) -> int:
            table = cc1 if value else cc0
            return min(x_inputs, key=lambda n: table[n])

        def hardest(value: int) -> int:
            table = cc1 if value else cc0
            return max(x_inputs, key=lambda n: table[n])

        if op in ("buf", "inv"):
            flip = op == "inv"
            return (x_inputs[0], 1 - target if flip else target)
        if op in ("and", "nand"):
            out_all1 = target if op == "and" else 1 - target
            if out_all1:  # need every input 1
                return (hardest(1), 1)
            return (easiest(0), 0)  # any input 0 suffices
        if op in ("or", "nor"):
            out_any1 = target if op == "or" else 1 - target
            if out_any1:
                return (easiest(1), 1)
            return (hardest(0), 0)
        if op in ("xor", "xnor"):
            parity = 0
            for nid in gate.ins:
                v = gv[nid]
                if v != X and nid not in x_inputs:
                    parity ^= v
            want = target if op == "xor" else 1 - target
            chosen = x_inputs[0]
            # Assume the other X inputs resolve to 0.
            return (chosen, want ^ parity)
        if op == "mux2":
            a, b, s = gate.ins
            a_v, b_v, s_v = gv[a], gv[b], gv[s]
            if s_v == 0 and a in x_inputs:
                return (a, target)
            if s_v == 1 and b in x_inputs:
                return (b, target)
            if s_v == X:
                # Choose the side whose data already matches, else side A.
                if a_v == target or (a in x_inputs and b_v != target):
                    return (s, 0) if s in x_inputs else (a, target)
                return (s, 1) if s in x_inputs else ((b, target)
                                                     if b in x_inputs else None)
            return None
        if op in ("aoi21", "oai21"):
            a1, a2, b = gate.ins
            inner_and = op == "aoi21"
            need = 1 - target  # value of the inner (pre-inversion) term
            # aoi: out = !((a1&a2)|b); oai: out = !((a1|a2)&b)
            if op == "aoi21":
                if need:  # (a1&a2)|b must be 1: easiest of b=1 / a1=a2=1
                    if b in x_inputs and (cc1[b] <= cc1[a1] + cc1[a2]
                                          or a1 not in x_inputs
                                          and a2 not in x_inputs):
                        return (b, 1)
                    for nid in (a1, a2):
                        if nid in x_inputs:
                            return (nid, 1)
                    return (b, 1) if b in x_inputs else None
                # (a1&a2)|b must be 0: b=0 and one of a1/a2 = 0
                if b in x_inputs:
                    return (b, 0)
                for nid in sorted((a1, a2), key=lambda n: cc0[n]):
                    if nid in x_inputs:
                        return (nid, 0)
                return None
            # oai21: inner = (a1|a2)&b
            if need:  # inner 1: b=1 and one of a1/a2 = 1
                if b in x_inputs:
                    return (b, 1)
                for nid in sorted((a1, a2), key=lambda n: cc1[n]):
                    if nid in x_inputs:
                        return (nid, 1)
                return None
            # inner 0: b=0 or both a1,a2 = 0
            if b in x_inputs and (cc0[b] <= cc0[a1] + cc0[a2]
                                  or (a1 not in x_inputs
                                      and a2 not in x_inputs)):
                return (b, 0)
            for nid in (a1, a2):
                if nid in x_inputs:
                    return (nid, 0)
            return (b, 0) if b in x_inputs else None
        return (x_inputs[0], target)

