"""Tests for the PODEM generator (5-valued search, SCOAP, X-path)."""

import itertools

import pytest

from repro.atpg.engine import _FaultDispatcher, _patterns_to_words
from repro.atpg.faults import Fault, FaultKind, Polarity, build_fault_list
from repro.atpg import podem
from repro.atpg.podem import (PodemGenerator, X, _OP3_CODES, _eval3,
                              _eval3_arr, _eval3_code)
from repro.atpg.sim import CompiledCircuit
from repro.dft.testview import build_prebond_test_view
from repro.netlist.builder import NetlistBuilder
from repro.netlist.library import default_library
from repro.util.errors import AtpgError


class TestEval3:
    def test_and_with_controlling_zero(self):
        assert _eval3("and", [0, X]) == 0
        assert _eval3("and", [1, X]) == X
        assert _eval3("and", [1, 1]) == 1

    def test_or_with_controlling_one(self):
        assert _eval3("or", [1, X]) == 1
        assert _eval3("or", [0, X]) == X

    def test_xor_unknown_dominates(self):
        assert _eval3("xor", [1, X]) == X
        assert _eval3("xor", [1, 0]) == 1

    def test_mux_select_known(self):
        assert _eval3("mux2", [1, X, 0]) == 1
        assert _eval3("mux2", [X, 0, 1]) == 0
        assert _eval3("mux2", [1, 1, X]) == 1  # both sides agree
        assert _eval3("mux2", [1, 0, X]) == X

    def test_aoi_oai(self):
        assert _eval3("aoi21", [1, 1, 0]) == 0
        assert _eval3("aoi21", [0, X, 0]) == 1
        assert _eval3("oai21", [0, 0, X]) == 1
        assert _eval3("oai21", [X, 0, 1]) == X

    def test_unknown_op_has_no_model(self):
        with pytest.raises(AtpgError):
            _eval3("frob", [0, 1])


def _library_arities():
    """(function, arity) of every combinational cell in the library."""
    return sorted({(cell.function, len(cell.input_pins))
                   for cell in default_library().cells.values()
                   if cell.function != "dff"})


class TestOpCodeTables:
    def test_every_library_function_has_a_code(self):
        assert {fn for fn, _arity in _library_arities()} == set(_OP3_CODES)
        assert len(_OP3_CODES) == 11

    @pytest.mark.parametrize("function,arity", _library_arities())
    def test_code_tables_match_eval3_exhaustively(self, function, arity):
        """Both small-int evaluators agree with the string-dispatched
        reference on every input in {0, 1, X}^arity."""
        code = _OP3_CODES[function]
        for vals in itertools.product((0, 1, X), repeat=arity):
            want = _eval3(function, vals)
            assert _eval3_code(code, vals) == want, (function, vals)
            # operands scattered through a larger value array
            values = [X] * (2 * arity + 1)
            ins = tuple(2 * k + 1 for k in range(arity))
            for nid, value in zip(ins, vals):
                values[nid] = value
            assert _eval3_arr(code, ins, values) == want, (function, vals)

    def test_op_without_model_fails_at_slice_build(self, monkeypatch):
        view, netlist = redundant_view()
        circuit = CompiledCircuit(view)
        monkeypatch.delitem(podem._OP3_CODES, "and")
        generator = PodemGenerator(circuit)
        inner_net = netlist.instance("g_and").output_net()
        fault = Fault(kind=FaultKind.STEM, polarity=Polarity.SA0,
                      net=inner_net)
        with pytest.raises(AtpgError, match="no 3-valued model for and"):
            generator.run(fault)
        with pytest.raises(AtpgError):
            generator.justify(circuit.net_ids[inner_net], 1)


def redundant_view():
    """out = OR(x, AND(x, y)) == x — the AND's faults are untestable."""
    builder = NetlistBuilder("red")
    x = builder.add_input("x")
    y = builder.add_input("y")
    inner = builder.add_gate("AND2_X1", [x, y], name="g_and")
    out = builder.add_gate("OR2_X1", [x, inner], name="g_or")
    builder.add_output("po", out)
    netlist = builder.finish()
    return build_prebond_test_view(netlist), netlist


class TestPodemVerdicts:
    def test_detects_testable_fault(self):
        view, netlist = redundant_view()
        circuit = CompiledCircuit(view)
        generator = PodemGenerator(circuit)
        fault = Fault(kind=FaultKind.STEM, polarity=Polarity.SA0, net="x")
        outcome = generator.run(fault)
        assert outcome.status == "detected"
        # verify the cube with the real simulator
        dispatcher = _FaultDispatcher(circuit, [fault])
        pattern = 0
        for j, nid in enumerate(circuit.input_columns):
            if outcome.assignment.get(nid, 0):
                pattern |= 1 << j
        words = _patterns_to_words([pattern], circuit.input_count)
        good = circuit.simulate(words, 1)
        assert dispatcher.detect_word(circuit, good, 0, 1)

    def test_proves_redundant_fault_untestable(self):
        view, netlist = redundant_view()
        circuit = CompiledCircuit(view)
        generator = PodemGenerator(circuit)
        # AND output s-a-0 is masked: out = x | (x&y) = x regardless
        inner_net = netlist.instance("g_and").output_net()
        fault = Fault(kind=FaultKind.STEM, polarity=Polarity.SA0,
                      net=inner_net)
        assert generator.run(fault).status == "untestable"

    def test_unobservable_fault_untestable(self):
        builder = NetlistBuilder("dead")
        a = builder.add_input("a")
        builder.add_gate("INV_X1", [a], name="g_dead")  # drives nothing
        b = builder.add_input("b")
        out = builder.add_gate("BUF_X1", [b])
        builder.add_output("po", out)
        view = build_prebond_test_view(builder.finish())
        circuit = CompiledCircuit(view)
        generator = PodemGenerator(circuit)
        dead_net = builder.netlist.instance("g_dead").output_net()
        fault = Fault(kind=FaultKind.STEM, polarity=Polarity.SA0,
                      net=dead_net)
        assert generator.run(fault).status == "untestable"

    def test_justify_only(self):
        view, netlist = redundant_view()
        circuit = CompiledCircuit(view)
        generator = PodemGenerator(circuit)
        inner = circuit.net_ids[netlist.instance("g_and").output_net()]
        outcome = generator.justify(inner, 1)
        assert outcome.status == "detected"
        # x=1 and y=1 forced
        assigned = {circuit.net_names[n]: v
                    for n, v in outcome.assignment.items()}
        assert assigned.get("x") == 1 and assigned.get("y") == 1

    def test_justify_control_net_directly(self):
        """A control net no gate of its (empty) fan-in closure reads is
        justified by one decision on itself."""
        view, _netlist = redundant_view()
        circuit = CompiledCircuit(view)
        x = circuit.net_ids["x"]
        outcome = PodemGenerator(circuit).justify(x, 0)
        assert (outcome.status, outcome.assignment) == ("detected", {x: 0})


class TestPodemAgainstSimulator:
    def test_cubes_verified_on_generated_die(self, small_test_view):
        """Every PODEM 'detected' verdict must replay in the packed
        simulator (cross-engine consistency)."""
        circuit = CompiledCircuit(small_test_view)
        faults = build_fault_list(small_test_view)
        dispatcher = _FaultDispatcher(circuit, faults.faults)
        generator = PodemGenerator(circuit, backtrack_limit=48)
        verified = 0
        for index, fault in enumerate(faults.faults):
            if verified >= 40:
                break
            outcome = generator.run(fault)
            if outcome.status != "detected":
                continue
            pattern = 0
            for j, nid in enumerate(circuit.input_columns):
                if outcome.assignment.get(nid, 0):
                    pattern |= 1 << j
            words = _patterns_to_words([pattern], circuit.input_count)
            good = circuit.simulate(words, 1)
            assert dispatcher.detect_word(circuit, good, index, 1), \
                f"PODEM cube for {fault.describe()} does not detect"
            verified += 1
        assert verified == 40

    def test_scoap_controllabilities_positive(self, small_test_view):
        circuit = CompiledCircuit(small_test_view)
        generator = PodemGenerator(circuit)
        for nid in circuit.input_columns[:10]:
            assert generator._cc0[nid] == 1
            assert generator._cc1[nid] == 1
        for gate in circuit.gates[:20]:
            assert generator._cc0[gate.out] > 0
            assert generator._cc1[gate.out] > 0
