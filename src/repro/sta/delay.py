"""Delay models: linear cell delay and Elmore wire delay.

Units: ps for time, fF for capacitance, um for distance, ohm/um and
fF/um for wire parasitics (45 nm intermediate-metal flavour). The
conversion constant is 1 ohm*fF = 0.001 ps.
"""

from __future__ import annotations

from dataclasses import dataclass

_OHM_FF_TO_PS = 0.001


@dataclass(frozen=True)
class WireModel:
    """First-order RC wire model.

    ``enabled=False`` zeroes all wire delay and wire capacitance — the
    load-only timing model of Agrawal et al. [4]. The default numbers
    give a 100 um wire roughly one gate delay of latency, matching the
    regime where ignoring wire delay on a reused scan flip-flop
    plausibly breaks a tight timing budget (the paper's Table III).
    """

    r_ohm_per_um: float = 4.0
    c_ff_per_um: float = 0.25
    enabled: bool = True

    # Negative lengths and loads clamp to 0 with a conditional rather
    # than max(x, 0.0): the same value (x is kept unless x < 0), and
    # much cheaper in the sharing graph's per-pair timing checks.
    def wire_cap_ff(self, length_um: float) -> float:
        """Capacitance the driver sees from the wire itself."""
        if not self.enabled:
            return 0.0
        return self.c_ff_per_um * (0.0 if length_um < 0.0 else length_um)

    def wire_delay_ps(self, length_um: float, load_ff: float) -> float:
        """Elmore delay of a wire of *length_um* into *load_ff*."""
        if not self.enabled:
            return 0.0
        length = 0.0 if length_um < 0.0 else length_um
        resistance = self.r_ohm_per_um * length
        distributed = 0.5 * resistance * self.c_ff_per_um * length
        lumped = resistance * (0.0 if load_ff < 0.0 else load_ff)
        return (distributed + lumped) * _OHM_FF_TO_PS


#: Wire model matching [4]: capacity load only, no wire parasitics.
LOAD_ONLY_WIRE_MODEL = WireModel(enabled=False)
