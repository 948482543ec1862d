"""SHARP's permutation approach: ARK's automorphism unit + SRAM transpose.

SHARP inherits the dedicated multi-stage automorphism network from ARK
but adds F1-style hierarchical quadrant-swap SRAM buffers for NTT
transposes (paper §II-D), which is why its transpose structure costs
"up to 7x" our network (§V-B).  Unlike F1's simultaneously-read-and-
written dual-port quadrant buffers, SHARP's hierarchical buffers stream
one direction per phase: a single port at ~half the effective access
duty, which is what keeps its measured power near ARK's despite the
large SRAM (Table II).

Note the port methodology (§V-A): all baselines are re-implemented on
the same 64-bit, 64-lane VPU, so this model uses the shared 64-bit
datapath width even though silicon SHARP is a 36-bit short-word design.
"""

from __future__ import annotations

import numpy as np

from repro.automorphism.mapping import AffinePermutation
from repro.baselines.ark import automorphism_unit_cost
from repro.baselines.benes import BenesNetwork
from repro.baselines.f1 import quadrant_swap_transpose
from repro.hwmodel import technology as tech
from repro.hwmodel.components import CostReport, mux_stage_cost
from repro.hwmodel.sram import SramMacro

#: Effective access duty of the phase-alternating hierarchical buffers.
SHARP_BUFFER_DUTY = 0.55


class SharpPermuter:
    """Behavioral model of SHARP's permutation units."""

    def __init__(self, m: int):
        self.m = m
        self.automorphism_network = BenesNetwork(m)
        self.passes_executed = 0

    def transpose(self, tile: np.ndarray) -> np.ndarray:
        """Transpose through the hierarchical SRAM buffers."""
        self.passes_executed += 1
        return quadrant_swap_transpose(tile)

    def automorphism(self, x: np.ndarray, perm: AffinePermutation) -> np.ndarray:
        """One pass of the inherited dedicated automorphism network."""
        self.passes_executed += 1
        return self.automorphism_network.apply(x, perm.destinations())


def sharp_network_cost(m: int, bits: int = tech.WORD_BITS) -> CostReport:
    """SHARP's permutation hardware on an ``m``-lane VPU."""
    autom_unit = automorphism_unit_cost(SharpPermuter(m).automorphism_network,
                                        bits, tech.SHARP_ACTIVITY_FACTOR)
    buffers = SramMacro(
        bits=m * m * bits,
        io_bits=m * bits,
        ports=1,
        duty=SHARP_BUFFER_DUTY,
        label="hierarchical transpose buffers",
    ).cost()
    swap_muxes = (mux_stage_cost(m, bits) * 2).scaled_power(
        tech.SHARP_ACTIVITY_FACTOR
    )
    total = autom_unit + buffers + swap_muxes
    return CostReport(total.area_um2, total.power_mw, f"SHARP network (m={m})")
