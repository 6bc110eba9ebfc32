"""Reuse timing models: accurate (ours) vs load-only (Agrawal [4]).

Electrical story (matches :mod:`repro.dft.wrapper` insertion):

* an **inbound** wrapper group is driven by its wrapper source (a
  reused scan FF's Q, or a dedicated cell's Q) through one ``BUF_X2``
  placed at the source; the buffer fans out to one test mux per member
  TSV, each placed at its TSV site. The buffer's load is the members'
  mux pins and sink loads *plus the route capacitance* — ``cap_th`` is
  the buffer's max load. The FF itself only gains one buffer input pin
  per adopted group;
* an **outbound** wrapper group folds its members into one XOR chain
  behind a test-mode mux in front of the capturing FF's D pin. The
  capture path ``TSV → (wire) → XOR chain → mux → D`` must fit the
  period; the functional D path gains one mux stage.

The accurate model (``use_wire_delay=True``) includes the wire terms;
the Agrawal model [4] zeroes them — under tight timing it overcommits
and its solutions fail sign-off STA (Table III's 20/24 violations).

A scan FF may serve several groups ("reused multiple times"); the
:class:`FfReuseLedger` accumulates each FF's extra Q load and enforces
at most one outbound chain per FF. See DESIGN.md §4.

Algorithm 1 asks for a timing verdict on every candidate pair, so the
model reads each node's timing inputs once, into an
:class:`FfTimingRecord` or :class:`TsvTimingRecord`, and
:meth:`ReuseTimingModel.pair_kernel` turns each of the four pair checks
into arithmetic on (record, record, distance). The ledger's adoption
checks and the clique-state checks call the same arithmetic helpers
(``_q_side``, ``_inbound_adopt_ok``, ``_outbound_capture_ok``, bound
in :meth:`ReuseTimingModel._bind_pair_arithmetic`), so every formula
is written once; ``repro.verify.oracles`` keeps an independent scalar
transcription that referees them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Set, Tuple, Union

from repro.core.config import WcmConfig
from repro.core.problem import WcmProblem
from repro.netlist.core import PortKind
from repro.sta.delay import WireModel
from repro.util.errors import ConfigError

INF = math.inf

#: safety margin (ps) kept between a predicted path and its requirement
PREDICTION_MARGIN_PS = 4.0


@dataclass
class CliqueTimingState:
    """Incrementally maintained timing/load state of one clique."""

    kind: PortKind
    members: Tuple[str, ...]
    anchor: Tuple[float, float]
    has_ff: bool
    #: buffer load the wrapper driver must carry (inbound groups)
    cap_ff: float = 0.0
    #: worst member-side arrival at the anchor (outbound groups)
    worst_arrival_ps: float = 0.0
    #: tightest required time among member TSV nets (inbound groups)
    min_required_ps: float = INF
    #: largest single member sink load (sets the slowest member mux)
    max_member_load_ff: float = 0.0
    #: farthest member from the anchor (um)
    max_span_um: float = 0.0
    # -- reused-FF data (when has_ff) ----------------------------------
    ff_name: Optional[str] = None
    ff_arrival_ps: float = 0.0
    ff_q_slack_ps: float = INF
    ff_resistance: float = 0.0
    #: arrival of the FF's functional D net (joins the XOR chain)
    ff_d_arrival_ps: float = 0.0
    #: worst member-net driver resistance (ps/fF) — the new XOR tap's
    #: wire load slows that driver down
    worst_member_resistance: float = 0.0
    #: tightest slack among member nets (both modes) — the tap slowdown
    #: must fit inside it, or the member's OTHER fanout paths violate
    min_member_slack_ps: float = INF
    #: slowdown of the functional D net from re-pinning (xor+mux pins)
    ff_d_slowdown_ps: float = 0.0


class FfTimingRecord(NamedTuple):
    """A scan FF's timing inputs, read once per model."""

    location: Tuple[float, float]
    #: functional arrival and slack of the Q net
    arrival_ps: float
    q_slack_ps: float
    #: the FF's drive resistance (ps/fF)
    resistance: float
    #: test-mode arrival of the functional D net (0 without one)
    d_arrival_ps: float
    #: slowdown of the D net from re-pinning it onto the XOR/mux pair
    d_slowdown_ps: float
    #: the Q net has the slack to drive one group buffer pin (a fresh
    #: ledger), and the launch time at that buffer: ``arrival + ΔR·C``
    q_ok: bool
    q_launch_ps: float
    #: the D net keeps its slack through the test mux and re-pinning,
    #: and the D-side source of the capture chain: ``d_arrival + d_slow``
    d_ok: bool
    d_source_ps: float


class TsvTimingRecord(NamedTuple):
    """A TSV's timing inputs, read once per model. The inbound checks
    read ``load_ff``/``required_ps``, the outbound checks the rest."""

    location: Tuple[float, float]
    #: this method's model load of the TSV net (see ``model_load_ff``)
    load_ff: float
    #: required time at the inbound test mux's B pin
    required_ps: float
    #: functional and test-mode arrival of the TSV net
    arrival_ps: float
    test_arrival_ps: float
    #: driver resistance of the TSV net (0 when a port drives it)
    resistance: float
    #: tightest slack of the TSV net over both modes
    min_slack_ps: float


NodeRecord = Union[FfTimingRecord, TsvTimingRecord]
PairKernel = Callable[[NodeRecord, TsvTimingRecord, float], bool]


def _no_wire(*_args: float) -> float:
    """Wire cap/delay of a model without wire terms."""
    return 0.0


def _admit(_a: NodeRecord, _b: TsvTimingRecord, _dist: float) -> bool:
    """Pair kernel of a check the scenario does not constrain."""
    return True


class ReuseTimingModel:
    """Feasibility oracle for reuse/sharing decisions."""

    def __init__(self, problem: WcmProblem, config: WcmConfig) -> None:
        self.problem = problem
        self.config = config
        self.timing = problem.timing
        self.test_timing = problem.test_timing
        library = problem.netlist.library
        self._mux = library.get("MUX2_X1")
        self._xor = library.get("XOR2_X1")
        self._buf = library.get("BUF_X2")
        self._sdff = library.get("SDFF_X1")
        #: physical wire model (matches the STA's defaults)
        self._wire = WireModel()
        # The "no timing constraint at all" scenario disables the whole
        # timing model (wire terms included): Table III's area columns
        # show both methods nearly identical, which only holds when the
        # area run is genuinely unconstrained.
        self._use_wire = config.use_wire_delay and config.scenario.is_timed
        period = config.scenario.clock.period_ps
        self._ff_required = (period - config.scenario.clock.setup_ps
                             if period is not None else INF)
        self._timed = config.scenario.is_timed
        self._wire_cap: Callable[[float], float] = (
            self._wire.wire_cap_ff if self._use_wire else _no_wire)
        self.buf_pin_cap = self._buf.input_cap("A")
        self._mux_b_cap = self._mux.input_cap("B")
        #: the test mux in front of a capturing FF's D pin
        self._mux_d_delay_ps = self._mux.delay_ps(self._sdff.input_cap("D"))
        #: a dedicated wrapper cell's launch into its group buffer
        self._dedicated_launch_ps = self._sdff.delay_ps(self.buf_pin_cap)
        #: D-net load change from re-pinning D onto the XOR/mux pair
        self._d_repin_cap = max(self._xor.input_cap("A")
                                + self._mux.input_cap("A")
                                - self._sdff.input_cap("D"), 0.0)
        # Per-node records and the lookups read more than once per node;
        # each returns exactly what a fresh recomputation would.
        self._ff_records: Dict[str, FfTimingRecord] = {}
        self._tsv_records: Dict[str, TsvTimingRecord] = {}
        self._location_cache: Dict[str, Tuple[float, float]] = {}
        self._load_cache: Dict[str, float] = {}
        self._bind_pair_arithmetic()

    # ------------------------------------------------------------------
    # Geometry / electrical primitives
    # ------------------------------------------------------------------
    def _location(self, name: str) -> Tuple[float, float]:
        loc = self._location_cache.get(name)
        if loc is None:
            loc = self._location_cache[name] = self.problem.location_of(name)
        return loc

    def distance_um(self, name_a: str, name_b: str) -> float:
        ax, ay = self._location(name_a)
        bx, by = self._location(name_b)
        return abs(ax - bx) + abs(ay - by)

    def _tsv_net(self, tsv_name: str) -> str:
        net = self.problem.netlist.port(tsv_name).net
        if net is None:
            raise ConfigError(f"TSV {tsv_name} unconnected")
        return net

    # ------------------------------------------------------------------
    # Loads (the quantity compared against cap_th)
    # ------------------------------------------------------------------
    def pin_load_ff(self, tsv_name: str) -> float:
        """Sink pin capacitance of the TSV's net (no wire)."""
        return self.problem.netlist.sink_cap_ff(self._tsv_net(tsv_name))

    def model_load_ff(self, tsv_name: str) -> float:
        """The load this method's model attributes to an inbound TSV.

        Computed on the *bare* die (the functional sinks the test mux
        must re-drive): pin caps plus, for the accurate model, the
        star-route wire capacitance from the TSV to each sink.
        """
        cached = self._load_cache
        load = cached.get(tsv_name)
        if load is not None:
            return load
        netlist = self.problem.netlist
        net = netlist.net(self._tsv_net(tsv_name))
        port = netlist.port(tsv_name)
        total = 0.0
        for sink in net.sinks:
            if sink.is_port:
                continue
            inst = netlist.instance(sink.owner_name)
            if sink.pin_name in ("SI", "SE", "CK"):
                continue
            total += inst.cell.input_cap(sink.pin_name)
            if self._use_wire:
                length = (abs(port.x - inst.x) + abs(port.y - inst.y))
                total += self._wire.wire_cap_ff(length)
        cached[tsv_name] = total
        return total

    def _driver_resistance(self, net_name: str) -> float:
        net = self.problem.netlist.net(net_name)
        if net.driver is None or net.driver.is_port:
            return 0.0
        return self.problem.netlist.instance(
            net.driver.owner_name).cell.drive_resistance

    def required_at_mux_b(self, tsv_name: str) -> float:
        """Required time at the inbound test mux's B pin, from the
        test-mode STA of the reference build."""
        mux_out = self.problem.tsv_mux_out.get(tsv_name)
        if mux_out is None:
            return INF
        required = self.test_timing.required_ps.get(mux_out, INF)
        if required is INF:
            return INF
        return required - self._mux.delay_ps(
            self.test_timing.load_of_net(mux_out))

    # ------------------------------------------------------------------
    # Per-node records
    # ------------------------------------------------------------------
    def ff_record(self, ff_name: str) -> FfTimingRecord:
        record = self._ff_records.get(ff_name)
        if record is None:
            record = self._ff_records[ff_name] = self._build_ff_record(
                ff_name)
        return record

    def tsv_record(self, tsv_name: str) -> TsvTimingRecord:
        record = self._tsv_records.get(tsv_name)
        if record is None:
            record = self._tsv_records[tsv_name] = self._build_tsv_record(
                tsv_name)
        return record

    def node_record(self, name: str, is_ff: bool) -> NodeRecord:
        return self.ff_record(name) if is_ff else self.tsv_record(name)

    def _build_ff_record(self, ff_name: str) -> FfTimingRecord:
        ff = self.problem.netlist.instance(ff_name)
        q_net = ff.output_net()
        d_net = ff.connections.get("D")
        arrival = self.timing.arrival_ps.get(q_net, 0.0)
        q_slack = self.timing.slack_of_net(q_net)
        resistance = ff.cell.drive_resistance
        q_ok, q_launch = self._q_side(arrival, q_slack, resistance, 0.0)
        if d_net is None:
            d_arrival = d_slowdown = 0.0
            d_ok = False
        else:
            d_arrival = self.test_timing.arrival_ps.get(d_net, 0.0)
            d_slowdown = self._driver_resistance(d_net) * self._d_repin_cap
            d_slack = min(self.timing.slack_of_net(d_net),
                          self.test_timing.slack_of_net(d_net))
            d_ok = not (d_slack < self._mux_d_delay_ps + d_slowdown
                        + PREDICTION_MARGIN_PS)
        return FfTimingRecord(
            location=self._location(ff_name), arrival_ps=arrival,
            q_slack_ps=q_slack, resistance=resistance,
            d_arrival_ps=d_arrival, d_slowdown_ps=d_slowdown,
            q_ok=q_ok, q_launch_ps=q_launch,
            d_ok=d_ok, d_source_ps=d_arrival + d_slowdown)

    def _build_tsv_record(self, tsv_name: str) -> TsvTimingRecord:
        net = self._tsv_net(tsv_name)
        return TsvTimingRecord(
            location=self._location(tsv_name),
            load_ff=self.model_load_ff(tsv_name),
            required_ps=self.required_at_mux_b(tsv_name),
            arrival_ps=self.timing.arrival_ps.get(net, 0.0),
            test_arrival_ps=self.test_timing.arrival_ps.get(net, 0.0),
            resistance=self._driver_resistance(net),
            min_slack_ps=min(self.timing.slack_of_net(net),
                             self.test_timing.slack_of_net(net)))

    # ------------------------------------------------------------------
    # Node filters (Algorithm 1, node construction)
    # ------------------------------------------------------------------
    def inbound_node_eligible(self, tsv_name: str) -> bool:
        return self.model_load_ff(tsv_name) < self.config.scenario.cap_th_ff

    def outbound_node_eligible(self, tsv_name: str) -> bool:
        # The capture happens in test mode; use the test-mode slack.
        slack = self.test_timing.slack_of_port(tsv_name)
        return slack > self.config.scenario.s_th_ps

    # ------------------------------------------------------------------
    # Pair arithmetic (Algorithm 1, edge construction)
    # ------------------------------------------------------------------
    def _bind_pair_arithmetic(self) -> None:
        """Bind the four pair kernels, and the helpers they share with
        the ledger and the clique-state checks, as closures over the
        model's constants: the sweep calls a kernel once per candidate
        pair, and closure variables are cheaper than attribute lookups.
        The conditionals written for ``max`` pick the same value."""
        wire_cap = self._wire_cap
        wire_delay = (self._wire.wire_delay_ps if self._use_wire
                      else _no_wire)
        buf_delay = self._buf.delay_ps
        buf_pin_cap, mux_b_cap = self.buf_pin_cap, self._mux_b_cap
        two_mux_b_cap = 2 * mux_b_cap
        xor_b_cap = self._xor.input_cap("B")
        xor_delay = self._xor.delay_ps(self._xor.input_cap("A"))
        two_xor_delay = 2 * xor_delay
        mux_d_delay = self._mux_d_delay_ps
        cap_th = self.config.scenario.cap_th_ff
        ff_required = self._ff_required
        slack_floor = self.config.scenario.s_th_ps + PREDICTION_MARGIN_PS
        margin = PREDICTION_MARGIN_PS

        def q_side(arrival_ps: float, q_slack_ps: float, resistance: float,
                   extra_cap_ff: float) -> Tuple[bool, float]:
            """(go, launch) when an FF whose Q already carries
            *extra_cap_ff* of group buffers drives one more: does the Q
            net keep its slack, and when does the new buffer see it."""
            delta_delay = resistance * (extra_cap_ff + buf_pin_cap)
            go = not (q_slack_ps < delta_delay + margin)
            return go, arrival_ps + delta_delay

        def inbound_adopt_ok(launch_ps: float, cap_ff: float,
                             required_ps: float, span_um: float,
                             hop_um: float) -> bool:
            """An inbound group driven from *hop_um* beyond its anchor:
            launch, group buffer under its load plus the hop's wire, and
            route to the farthest member's mux vs. the tightest
            member's required time."""
            if required_ps is INF:
                return True
            cap = cap_ff + wire_cap(hop_um)
            if cap >= cap_th:
                return False
            path = (launch_ps + buf_delay(cap)
                    + wire_delay(span_um + hop_um, mux_b_cap))
            return path + margin <= required_ps

        def outbound_capture_ok(arrival_ps: float, resistance: float,
                                member_slack_ps: float, d_source_ps: float,
                                chain_depth: int, span_um: float) -> bool:
            """Test capture of an outbound group whose XOR chain sits
            *span_um* from its farthest member."""
            tap_cap = xor_b_cap + wire_cap(span_um)
            slowdown = resistance * tap_cap
            # The tap slowdown also delays the member's other fanout;
            # it must fit inside the member's own slack.
            if slowdown + margin > member_slack_ps:
                return False
            member_source = (arrival_ps + slowdown
                             + wire_delay(span_um, xor_b_cap))
            source = (d_source_ps if d_source_ps > member_source
                      else member_source)
            capture = source + chain_depth * xor_delay + mux_d_delay
            slack = ff_required - capture
            return slack > slack_floor

        def inbound_reuse(ff: FfTimingRecord, tsv: TsvTimingRecord,
                          hop_um: float) -> bool:
            """A fresh FF's Q (via its group buffer) drives one TSV."""
            return ff.q_ok and inbound_adopt_ok(
                ff.q_launch_ps, mux_b_cap, tsv.required_ps, 0.0, hop_um)

        def outbound_reuse(ff: FfTimingRecord, tsv: TsvTimingRecord,
                           hop_um: float) -> bool:
            """A fresh FF observes one TSV through an XOR tap. Like the
            ledger's adoption probe, it applies no member-slack test."""
            return ff.d_ok and outbound_capture_ok(
                tsv.test_arrival_ps, tsv.resistance, INF, ff.d_source_ps,
                1, hop_um)

        def inbound_share(a: TsvTimingRecord, b: TsvTimingRecord,
                          dist_um: float) -> bool:
            """Two inbound TSVs hang off one group buffer."""
            total = (a.load_ff + b.load_ff + two_mux_b_cap
                     + wire_cap(dist_um))
            return total < cap_th

        def outbound_share(a: TsvTimingRecord, b: TsvTimingRecord,
                           dist_um: float) -> bool:
            """Two outbound TSVs share one observation chain. Rounding
            is monotone, so the later-arriving member sets the worst
            path."""
            arrival = (b.arrival_ps if b.arrival_ps > a.arrival_ps
                       else a.arrival_ps)
            worst = (arrival + wire_delay(dist_um, xor_b_cap)
                     + two_xor_delay + mux_d_delay)
            if not worst > 0.0:
                worst = 0.0
            return ff_required - worst > slack_floor

        self._q_side = q_side
        self._inbound_adopt_ok = inbound_adopt_ok
        self._outbound_capture_ok = outbound_capture_ok
        timed = self._timed
        self._kernels: Dict[Tuple[PortKind, bool], PairKernel] = {
            (PortKind.TSV_INBOUND, True): inbound_reuse if timed else _admit,
            (PortKind.TSV_OUTBOUND, True): (outbound_reuse if timed
                                            else _admit),
            (PortKind.TSV_INBOUND, False): (_admit if cap_th is INF
                                            else inbound_share),
            (PortKind.TSV_OUTBOUND, False): (outbound_share if timed
                                             else _admit),
        }

    def pair_kernel(self, kind: PortKind, ff_pair: bool) -> PairKernel:
        """The timing check of one pair shape as ``kernel(record_a,
        record_b, distance_um)``: *record_a* is the FF's record when
        *ff_pair*, else the first TSV's; *record_b* is a TSV's."""
        return self._kernels[(kind, ff_pair)]

    def pair_feasible(self, name_a: str, name_b: str, kind: PortKind,
                      a_is_ff: bool, b_is_ff: bool) -> bool:
        """Edge-level timing feasibility for Algorithm 1."""
        if a_is_ff and b_is_ff:
            return False  # FF-FF edges never exist
        if b_is_ff:
            name_a, name_b = name_b, name_a
        ff_pair = a_is_ff or b_is_ff
        return self.pair_kernel(kind, ff_pair)(
            self.node_record(name_a, ff_pair), self.tsv_record(name_b),
            self.distance_um(name_a, name_b))

    def inbound_reuse_feasible(self, ff_name: str, tsv_name: str) -> bool:
        """Can *ff_name* (via its group buffer) drive *tsv_name*'s mux?"""
        return self.pair_feasible(ff_name, tsv_name, PortKind.TSV_INBOUND,
                                  True, False)

    def outbound_reuse_feasible(self, ff_name: str, tsv_name: str) -> bool:
        """Can *ff_name* observe *tsv_name* through an XOR tap?"""
        return self.pair_feasible(ff_name, tsv_name, PortKind.TSV_OUTBOUND,
                                  True, False)

    # ------------------------------------------------------------------
    # Clique state (Algorithm 2's `cap` bookkeeping)
    # ------------------------------------------------------------------
    def initial_state(self, name: str, kind: PortKind, is_ff: bool
                      ) -> CliqueTimingState:
        if is_ff:
            ff = self.ff_record(name)
            return CliqueTimingState(
                kind=kind, members=(), anchor=ff.location, has_ff=True,
                ff_name=name,
                ff_arrival_ps=ff.arrival_ps,
                ff_q_slack_ps=ff.q_slack_ps,
                ff_resistance=ff.resistance,
                ff_d_arrival_ps=ff.d_arrival_ps,
                ff_d_slowdown_ps=ff.d_slowdown_ps,
            )
        tsv = self.tsv_record(name)
        if kind is PortKind.TSV_INBOUND:
            return CliqueTimingState(
                kind=kind, members=(name,), anchor=tsv.location,
                has_ff=False,
                cap_ff=self._mux_b_cap,
                min_required_ps=tsv.required_ps,
                max_member_load_ff=tsv.load_ff,
            )
        return CliqueTimingState(
            kind=kind, members=(name,), anchor=tsv.location, has_ff=False,
            worst_arrival_ps=tsv.test_arrival_ps,
            worst_member_resistance=tsv.resistance,
            min_member_slack_ps=tsv.min_slack_ps,
        )

    def _inbound_capture_ok(self, state: CliqueTimingState) -> bool:
        """Worst member path through buffer+mux vs. tightest required."""
        if not self._timed or state.min_required_ps is INF:
            return True
        if not state.has_ff:
            # Dedicated cell at the anchor: its launch is the SDFF's
            # clock-to-Q; members still pay buffer + route.
            launch = self._dedicated_launch_ps
        else:
            # The baseline STA already includes each member's test mux
            # (the dedicated-wrapper reference build), so the prediction
            # adds only what reuse changes: FF loading, buffer, route.
            _go, launch = self._q_side(state.ff_arrival_ps,
                                       state.ff_q_slack_ps,
                                       state.ff_resistance, 0.0)
        # merged_state already held cap_ff under cap_th; at zero hop
        # the adoption check is exactly the group's own path check.
        return self._inbound_adopt_ok(launch, state.cap_ff,
                                      state.min_required_ps,
                                      state.max_span_um, 0.0)

    def merged_state(self, a: CliqueTimingState, b: CliqueTimingState
                     ) -> Optional[CliqueTimingState]:
        """State after merging two cliques, or None if infeasible.

        This is the paper's ``cap + 1 < cap_th`` merge test, with the
        accurate model adding anchor-distance wire terms.
        """
        if a.has_ff and b.has_ff:
            return None
        if (len(a.members) + len(b.members)
                > self.config.max_group_size):
            return None
        primary, other = (a, b) if (a.has_ff or not b.has_ff) else (b, a)
        anchor = primary.anchor
        span = (abs(a.anchor[0] - b.anchor[0])
                + abs(a.anchor[1] - b.anchor[1]))
        members = a.members + b.members
        max_span = max(primary.max_span_um, other.max_span_um + span)

        common = dict(
            kind=a.kind, members=members, anchor=anchor,
            has_ff=a.has_ff or b.has_ff,
            ff_name=a.ff_name or b.ff_name,
            ff_arrival_ps=max(a.ff_arrival_ps, b.ff_arrival_ps),
            ff_q_slack_ps=min(a.ff_q_slack_ps, b.ff_q_slack_ps),
            ff_resistance=max(a.ff_resistance, b.ff_resistance),
            ff_d_arrival_ps=max(a.ff_d_arrival_ps, b.ff_d_arrival_ps),
            ff_d_slowdown_ps=max(a.ff_d_slowdown_ps, b.ff_d_slowdown_ps),
            worst_member_resistance=max(a.worst_member_resistance,
                                        b.worst_member_resistance),
            min_member_slack_ps=min(a.min_member_slack_ps,
                                    b.min_member_slack_ps),
            max_span_um=max_span,
        )

        if a.kind is PortKind.TSV_INBOUND:
            cap = a.cap_ff + b.cap_ff + self._wire_cap(span)
            if cap >= self.config.scenario.cap_th_ff:
                return None
            state = CliqueTimingState(
                cap_ff=cap,
                min_required_ps=min(a.min_required_ps, b.min_required_ps),
                max_member_load_ff=max(a.max_member_load_ff,
                                       b.max_member_load_ff),
                **common,
            )
            if not self._inbound_capture_ok(state):
                return None
            return state

        # Outbound: the XOR chain deepens with the member count.
        # worst_arrival_ps stays *raw* (at the member net); wire and
        # driver-slowdown terms are computed from the span when checked.
        worst_raw = max(a.worst_arrival_ps, b.worst_arrival_ps)
        state = CliqueTimingState(worst_arrival_ps=worst_raw, **common)
        if self._timed and not self.outbound_capture_ok(state, 0.0):
            return None
        return state

    def outbound_capture_ok(self, state: CliqueTimingState,
                            extra_hop_um: float) -> bool:
        """Test-capture feasibility of an outbound group whose chain
        sits *extra_hop_um* beyond the current anchor (0 for the state
        as-is)."""
        if not self._timed:
            return True
        d_source = ((state.ff_d_arrival_ps + state.ff_d_slowdown_ps)
                    if state.has_ff else 0.0)
        return self._outbound_capture_ok(
            state.worst_arrival_ps, state.worst_member_resistance,
            state.min_member_slack_ps, d_source,
            max(1, len(state.members)), state.max_span_um + extra_hop_um)


class FfReuseLedger:
    """Per-FF budget accounting for multi-group reuse (DESIGN.md §4)."""

    def __init__(self, model: ReuseTimingModel) -> None:
        self.model = model
        self._extra_q_cap: Dict[str, float] = {}
        self._outbound_used: Set[str] = set()

    # ------------------------------------------------------------------
    @staticmethod
    def _hop(ff: FfTimingRecord, state: CliqueTimingState) -> float:
        fx, fy = ff.location
        return abs(fx - state.anchor[0]) + abs(fy - state.anchor[1])

    def inbound_adoption_feasible(self, ff_name: str,
                                  state: CliqueTimingState) -> bool:
        model = self.model
        if not model._timed:
            return True
        ff = model.ff_record(ff_name)
        go, launch = model._q_side(ff.arrival_ps, ff.q_slack_ps,
                                   ff.resistance,
                                   self._extra_q_cap.get(ff_name, 0.0))
        return go and model._inbound_adopt_ok(
            launch, state.cap_ff, state.min_required_ps, state.max_span_um,
            self._hop(ff, state))

    def outbound_adoption_feasible(self, ff_name: str,
                                   state: CliqueTimingState) -> bool:
        model = self.model
        if ff_name in self._outbound_used:
            return False
        if not model._timed:
            return True
        ff = model.ff_record(ff_name)
        # The adoption probe carries no member slack, so the tap
        # slowdown test that TSV-TSV merges apply is skipped here.
        return ff.d_ok and model._outbound_capture_ok(
            state.worst_arrival_ps, state.worst_member_resistance, INF,
            ff.d_source_ps, max(1, len(state.members)),
            state.max_span_um + self._hop(ff, state))

    # ------------------------------------------------------------------
    def adoption_feasible(self, ff_name: str, state: CliqueTimingState
                          ) -> bool:
        if state.kind is PortKind.TSV_INBOUND:
            return self.inbound_adoption_feasible(ff_name, state)
        return self.outbound_adoption_feasible(ff_name, state)

    def commit(self, ff_name: str, state: CliqueTimingState) -> None:
        if state.kind is PortKind.TSV_INBOUND:
            self._extra_q_cap[ff_name] = (self._extra_q_cap.get(ff_name, 0.0)
                                          + self.model.buf_pin_cap)
        else:
            self._outbound_used.add(ff_name)
