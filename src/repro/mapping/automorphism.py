"""Full-length automorphism mapping onto the VPU (paper §IV-B).

A length-``N`` affine permutation (automorphism composed with an
optional shift — both the paper's Eq. 1 and the exact CKKS Galois
action) decomposes over ``N = R x C`` with ``R = m``:

* every source column lands wholly in one destination column
  (Eq. 3 generalized), handled by the register/memory *write address*;
* within a column the action is a length-``m`` affine map (Eq. 2), whose
  control word comes straight from the closed form
  (:func:`repro.automorphism.controls.affine_controls`) — the paper's
  pre-generated SRAM table merged with the column shift "using some
  extra simple logic gates".

The compiled program therefore moves every column through the inter-lane
network **exactly once**: ``N/m`` network passes for ``N`` elements,
which is why Table III reports 100% automorphism throughput.
"""

from __future__ import annotations

from repro.automorphism.controls import affine_controls
from repro.automorphism.decomposition import column_decompose
from repro.automorphism.mapping import AffinePermutation
from repro.core.isa import Load, NetworkPass, Program, Store
from repro.core.network import NetworkConfig

_R_WORK = 0
_R_OUT = 1


def compile_automorphism(perm: AffinePermutation, m: int,
                         src_base: int = 0,
                         dst_base: int | None = None) -> Program:
    """Compile a length-``N`` affine permutation into column passes.

    Memory rows ``[src_base, src_base + N/m)`` hold the input in the
    column layout of :func:`repro.mapping.ntt.pack_for_ntt` (memory row
    ``c`` holds column ``c``); the permuted result lands at ``dst_base``
    (default: right after the input) in the same layout, which
    :func:`repro.mapping.ntt.unpack_columns` reads back.
    """
    n = perm.n
    if n % m:
        raise ValueError(f"N={n} is not a multiple of m={m}")
    cols = n // m
    if dst_base is None:
        dst_base = src_base + cols
    if abs(dst_base - src_base) < cols:
        raise ValueError("source and destination regions overlap")

    column_map, row_maps = column_decompose(perm, rows=m)
    prog = Program(label=f"automorphism k={perm.multiplier} s={perm.offset} N={n}")
    for c in range(cols):
        row_map = row_maps[c]
        controls = affine_controls(m, row_map.multiplier, row_map.offset)
        c_dst = column_map.dest(c) if cols > 1 else 0
        prog.append(Load(_R_WORK, src_base + c))
        prog.append(NetworkPass(_R_OUT, _R_WORK,
                                NetworkConfig(shift=controls)))
        prog.append(Store(_R_OUT, dst_base + c_dst))
    return prog
