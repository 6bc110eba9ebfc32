"""Golden digest of every PODEM search outcome on one wrapped die.

The digest covers each outcome's fault, status, backtrack count and
sorted assignment, so it pins the search itself (decision order,
backtrace choices, abort points), not only the coverage it adds up to.
It was recorded while a second, from-scratch implication engine still
existed. That engine produced the identical outcome for every search it
finished; it never returned from a launch ``justify`` whose target is a
control net (44 such targets here), which the array-trail engine
resolves with one decision.
"""

import hashlib

import pytest

from repro.atpg.engine import AtpgConfig
from repro.atpg.faults import Fault, FaultKind, Polarity, build_fault_list
from repro.atpg.podem import PodemGenerator
from repro.atpg.sim import CompiledCircuit
from repro.atpg.transition import build_transition_faults
from repro.dft.scan import stitch_scan_chains
from repro.dft.testview import build_prebond_test_view
from repro.dft.wrapper import dedicated_plan, insert_wrappers
from repro.runtime.config import configure

#: (collapsed stuck-at faults, transition faults) on b12 die 1
GOLDEN_COUNTS = (1591, 934)
GOLDEN_DIGEST = \
    "1943a87c9d785f86f615ca44834c2fb0fe26c73b8dcb1c98d9b63bf766ec2e53"


@pytest.fixture(params=["python"])
def backend(request):
    configure(backend=request.param)
    return request.param


def podem_digest(view) -> tuple:
    """Run PODEM the way both ATPG engines call it — ``run`` on every
    collapsed stuck-at fault, then per transition fault the capture
    ``run`` at the stem and the launch ``justify`` — and hash every
    outcome in order."""
    circuit = CompiledCircuit(view)
    generator = PodemGenerator(circuit, AtpgConfig().backtrack_limit)
    digest = hashlib.sha256()

    def record(tag: str, outcome) -> None:
        cube = ",".join(f"{circuit.net_names[net]}={value}" for net, value
                        in sorted(outcome.assignment.items()))
        digest.update(f"{tag}|{outcome.status}|{outcome.backtracks}|"
                      f"{cube}\n".encode())

    stuck = build_fault_list(view).faults
    for fault in stuck:
        record(f"{fault.kind.name} {fault.describe()}", generator.run(fault))
    transition = build_transition_faults(view)
    for fault in transition:
        initial = fault.initial_value
        record(f"capture {fault.net} {initial}", generator.run(Fault(
            kind=FaultKind.STEM,
            polarity=Polarity.SA0 if initial == 0 else Polarity.SA1,
            net=fault.net)))
        record(f"launch {fault.net} {initial}",
               generator.justify(circuit.net_ids[fault.net], initial))
    return (len(stuck), len(transition)), digest.hexdigest()


def test_podem_outcomes_match_golden(medium_die, backend):
    wrapped, _report = insert_wrappers(medium_die, dedicated_plan(medium_die))
    stitch_scan_chains(wrapped, restitch=True)
    counts, digest = podem_digest(build_prebond_test_view(wrapped))
    assert counts == GOLDEN_COUNTS
    assert digest == GOLDEN_DIGEST
