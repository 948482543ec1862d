"""Baseline permutation designs the paper compares against (Table I/II).

Each baseline module provides the behavioral model of that design's
permutation approach, ported to the same 64-lane VPU as in the paper's
§V-A methodology, plus a ``*_network_cost`` function priced with the
shared technology constants of :mod:`repro.hwmodel` from the counts of
the models that route (Benes columns, crosspoints, CG and shift stages):

* :mod:`repro.baselines.f1` — F1: quadrant-swap SRAM transpose buffers
  plus a cyclic-shift network (automorphism = shifts + transposes).
* :mod:`repro.baselines.bts` — BTS: full 64-bit crossbars, permutations
  by direct addressing.
* :mod:`repro.baselines.ark` — ARK: a dedicated fixed NTT-connection
  network plus a separate multi-stage (Benes-style) automorphism unit.
* :mod:`repro.baselines.sharp` — SHARP: ARK's automorphism unit plus
  F1-style (double-depth, 36-bit word) SRAM transpose buffers.
* :mod:`repro.baselines.benes` — the rearrangeable Benes network with its
  looping route algorithm, used by the ARK/SHARP models.
* :mod:`repro.baselines.crossbar` — the full-crossbar switch used by BTS.
"""

from repro.baselines.ark import ArkPermuter, ark_network_cost
from repro.baselines.benes import BenesNetwork
from repro.baselines.bts import BtsPermuter, bts_network_cost
from repro.baselines.crossbar import Crossbar
from repro.baselines.f1 import (
    F1Permuter,
    affine_via_uniform_shifts,
    f1_network_cost,
    quadrant_swap_transpose,
)
from repro.baselines.sharp import SharpPermuter, sharp_network_cost
from repro.hwmodel import our_network_cost

#: Table II's five designs, in its row order, and their cost functions.
NETWORK_COSTS = {"F1": f1_network_cost, "BTS": bts_network_cost,
                 "ARK": ark_network_cost, "SHARP": sharp_network_cost,
                 "Ours": our_network_cost}

__all__ = [
    "ArkPermuter",
    "SharpPermuter",
    "BenesNetwork",
    "BtsPermuter",
    "Crossbar",
    "F1Permuter",
    "NETWORK_COSTS",
    "affine_via_uniform_shifts",
    "ark_network_cost",
    "bts_network_cost",
    "f1_network_cost",
    "quadrant_swap_transpose",
    "sharp_network_cost",
]
