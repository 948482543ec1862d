"""Automorphism (Galois) machinery.

The paper's central insight (§IV-B) is that the irregular automorphism
permutation decomposes into nothing but cyclic shifts, all of which merge
into a **single traversal** of the VPU's multi-stage shift network.  This
package contains:

* :mod:`repro.automorphism.mapping` — the index maps themselves:
  the paper's Eq. (1), the general affine permutation class
  ``i -> k*i + s (mod n)`` (``k`` odd) that both the paper's map and the
  exact CKKS evaluation-domain Galois action instantiate, and the
  coefficient-domain automorphism with negacyclic sign flips.
* :mod:`repro.automorphism.decomposition` — the R x C column decomposition
  (Eqs. 2-3) and the recursive ``C' = 2`` shift decomposition.
* :mod:`repro.automorphism.controls` — shift-network control-signal
  generation: ``m - 1`` bits per automorphism, ``m/2``-entry pre-generated
  table (the paper's on-chip SRAM), plus a generic router that decides
  whether an arbitrary distance map can traverse the network in one pass.
  The words steer :class:`repro.core.network.InterLaneNetwork`, the only
  model of the routing itself.
"""

from repro.automorphism.controls import (
    RoutingConflictError,
    ShiftControls,
    affine_controls,
    control_table,
    control_table_size_bits,
    route_distance_map,
    uniform_shift_controls,
)
from repro.automorphism.decomposition import (
    StridedShift,
    column_decompose,
    merge_shifts,
    recursive_shift_decomposition,
)
from repro.automorphism.mapping import (
    AffinePermutation,
    apply_galois_coeffs,
    galois_element_for_rotation,
    galois_eval_permutation,
    paper_sigma,
)

__all__ = [
    "AffinePermutation",
    "RoutingConflictError",
    "ShiftControls",
    "StridedShift",
    "affine_controls",
    "apply_galois_coeffs",
    "column_decompose",
    "control_table",
    "control_table_size_bits",
    "galois_element_for_rotation",
    "galois_eval_permutation",
    "merge_shifts",
    "paper_sigma",
    "recursive_shift_decomposition",
    "route_distance_map",
    "uniform_shift_controls",
]
