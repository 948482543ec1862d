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

import numpy as np

from repro.automorphism.controls import affine_controls
from repro.automorphism.decomposition import column_decompose
from repro.automorphism.mapping import AffinePermutation
from repro.core.isa import Load, NetworkPass, Program, Store
from repro.core.network import NetworkConfig
from repro.core.vpu import VectorMemory

_R_WORK = 0
_R_OUT = 1


def automorphism_layout_pack(x: np.ndarray, m: int) -> np.ndarray:
    """Memory layout for the automorphism program.

    Row-major ``N = m x C`` matrix with the **row index across lanes**:
    memory row ``c`` holds column ``c``, i.e. lane ``l`` of row ``c`` is
    element ``x[l * C + c]``.  Each vector of an ``(..., N)`` stack gets
    its own rows.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if n % m:
        raise ValueError(f"N={n} is not a multiple of m={m}")
    cols = n // m
    return x.reshape(*x.shape[:-1], m, cols).swapaxes(-1, -2).copy()


def automorphism_layout_unpack(memory: VectorMemory | np.ndarray, n: int,
                               m: int, base_row: int = 0) -> np.ndarray:
    """Read a vector back out of the column layout of a memory, or one
    out of each image of an ``(..., rows, m)`` stack."""
    data = memory if isinstance(memory, np.ndarray) else memory.data
    cols = data[..., base_row:base_row + n // m, :].swapaxes(-1, -2)
    return cols.reshape(*cols.shape[:-2], -1).copy()


def compile_automorphism(perm: AffinePermutation, m: int,
                         src_base: int = 0,
                         dst_base: int | None = None) -> Program:
    """Compile a length-``N`` affine permutation into column passes.

    Memory rows ``[src_base, src_base + N/m)`` hold the packed input
    (:func:`automorphism_layout_pack`); the permuted result lands at
    ``dst_base`` (default: right after the input) in the same layout.
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


def network_passes_for_automorphism(n: int, m: int) -> int:
    """Network passes of the compiled program: always ``N/m`` — each
    element traverses the network exactly once."""
    if n % m:
        raise ValueError(f"N={n} is not a multiple of m={m}")
    return n // m
