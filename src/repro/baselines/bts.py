"""BTS's permutation approach: full crossbars with direct addressing.

BTS moves data through global horizontal/vertical crossbars and performs
transposes and automorphisms implicitly by writing each element to its
destination address.  Ported to a single ``m``-lane VPU (paper §V-A),
that is an ``m x m`` word-wide crossbar: one pass for any permutation,
``O(m^2)`` crosspoints and the worst wire-length scaling of Table II.
"""

from __future__ import annotations

import numpy as np

from repro.automorphism.mapping import AffinePermutation
from repro.baselines.crossbar import Crossbar
from repro.hwmodel import technology as tech
from repro.hwmodel.components import CostReport


class BtsPermuter:
    """Behavioral model of BTS's crossbar permutation unit."""

    def __init__(self, m: int):
        self.m = m
        self.crossbar = Crossbar(m)
        self.passes_executed = 0

    def automorphism(self, x: np.ndarray, perm: AffinePermutation) -> np.ndarray:
        """One crossbar pass: direct-addressed scatter."""
        self.passes_executed += 1
        return self.crossbar.permute(x, perm.destinations())

    def transpose_column(self, x: np.ndarray, dest: np.ndarray) -> np.ndarray:
        """Transposes are also a single addressed pass per column."""
        self.passes_executed += 1
        return self.crossbar.permute(x, dest)


def bts_network_cost(m: int, bits: int = tech.WORD_BITS) -> CostReport:
    """An ``m x m`` crossbar with ``bits``-wide links.

    Area: the crossbar's crosspoint array (``m^2`` word crosspoints).
    Power: each of the ``m`` active paths drives a wire spanning ``m/2``
    lane pitches on average every cycle.
    """
    crossbar = BtsPermuter(m).crossbar
    area = crossbar.crosspoint_count * bits * tech.XBAR_CROSSPOINT_AREA_PER_BIT
    power = m * bits * (m / 2) * tech.XBAR_WIRE_POWER_PER_BIT_LANE
    return CostReport(area, power, f"BTS crossbar (m={m})")
