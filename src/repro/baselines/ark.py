"""ARK's permutation approach: two separate dedicated networks.

ARK builds a dedicated NTT unit with fixed butterfly connections and a
*separate* dedicated automorphism unit containing a multi-stage
permutation network (modeled as a Benes network, the canonical
rearrangeable multi-stage switch).  Each network alone is area-efficient,
but the duplication — two lane attachments, two control planes, and no
shared stages — costs ARK the 1.6x area / ~3x power the paper reports.
"""

from __future__ import annotations

import numpy as np

from repro.automorphism.mapping import AffinePermutation
from repro.baselines.benes import BenesNetwork
from repro.core.network import InterLaneNetwork
from repro.hwmodel import technology as tech
from repro.hwmodel.components import CostReport
from repro.hwmodel.network_cost import multistage_network_cost
from repro.ntt.constant_geometry import dif_gather_permutation, dit_scatter_permutation


class ArkPermuter:
    """Behavioral model of ARK's dual dedicated networks."""

    def __init__(self, m: int):
        self.m = m
        self.automorphism_network = BenesNetwork(m)
        self.passes_executed = 0

    def ntt_gather(self, x: np.ndarray, dit: bool = False) -> np.ndarray:
        """One pass of the fixed NTT-connection network."""
        self.passes_executed += 1
        perm = dit_scatter_permutation(self.m) if dit else dif_gather_permutation(self.m)
        return np.asarray(x)[perm]

    def automorphism(self, x: np.ndarray, perm: AffinePermutation) -> np.ndarray:
        """One pass of the dedicated (Benes) automorphism network."""
        self.passes_executed += 1
        return self.automorphism_network.apply(x, perm.destinations())


def automorphism_unit_cost(network: BenesNetwork, bits: int,
                           activity: float) -> CostReport:
    """The dedicated automorphism unit built on ``network``.

    ARK's specialized variant trims one of the Benes network's
    ``2*log2(m) - 1`` switch columns by exploiting the restricted
    permutation family, leaving ``2*log2(m) - 2`` mux stages.
    """
    return multistage_network_cost(network.n, network.stage_count - 1, bits,
                                   activity=activity)


def ark_network_cost(m: int, bits: int = tech.WORD_BITS) -> CostReport:
    """ARK's two dedicated networks on an ``m``-lane VPU.

    The NTT unit has our network's CG wiring; the automorphism unit is
    built on the Benes network :class:`ArkPermuter` routes through.
    """
    ntt_unit = multistage_network_cost(
        m, len(InterLaneNetwork(m).cg_stages), bits,
        activity=tech.ARK_ACTIVITY_FACTOR,
    )
    autom_unit = automorphism_unit_cost(ArkPermuter(m).automorphism_network,
                                        bits, tech.ARK_ACTIVITY_FACTOR)
    total = ntt_unit + autom_unit
    return CostReport(total.area_um2, total.power_mw, f"ARK networks (m={m})")
