"""Multi-dimensional NTT compilation onto the VPU (paper §IV-A).

A length-``N`` transform decomposes into dimensions of length ``m`` (the
lane count); each dimension is a batch of constant-geometry small NTTs
run on the CG network stage, separated by element-wise twiddle passes
and the shift-network transposes of :mod:`repro.mapping.transpose`.

Layout convention (recursive four-step, ``N = m * R``):

* memory row ``jr`` (``jr`` in ``[0, R)``), lane ``j1`` holds element
  ``x[j1 * R + jr]`` — :func:`pack_for_ntt` produces this arrangement,
  which in hardware is the DMA's strided fetch pattern;
* after the dimension-1 CG-DIF pass, lane ``p`` of each row holds the
  partial result for ``k1 = bitrev(p)`` — twiddles and the final unpack
  account for the hardware's bit-reversed order, and the inverse
  transform consumes it directly (no bit-reverse pass, §III-A);
* the tile transposes regroup the remaining ``R`` indices so the
  recursion sees the same convention at size ``R``.

Any power-of-two ``N >= m`` compiles.  Full-width (``length-m``)
dimensions peel off recursively with square tile transposes; a ragged
tail ``c < m`` runs in the packed layout of §IV-A — ``m/c`` grouped-CG
small NTTs per row — reached by the packed transpose of
:mod:`repro.mapping.transpose`.  A reproduction finding: with this
layout choice (dest lane ``g*c + j2`` fed from source lane ``g*c + r``)
the packed transpose decomposes into *group-local* cyclic shifts, which
the single-pass routing theorem covers modulo ``c``, so the ragged
boundary costs the same two network passes per row as the square one and
the CG stage never needs to assist — the paper's Fig. 3(b) irregular
case is an artifact of its ``z|y``-ordered layout.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.isa import (
    Load,
    NttStage,
    Program,
    Store,
    VMulScalar,
    VMulTwiddle,
)
from repro.core.vpu import VectorMemory
from repro.mapping.transpose import (
    compile_packed_transpose,
    compile_tile_transpose,
)
from repro.ntt.bitrev import bit_reverse_indices
from repro.ntt.constant_geometry import cg_dif_exponents, cg_dit_exponents

#: Working register 0 (every stage runs in place); transpose tiles use
#: [2, 2+2m).
_R_WORK = 0
_TILE_A = 2


class NttMappingError(ValueError):
    """The requested NTT cannot be compiled for this lane count."""


def required_registers(m: int) -> int:
    """Register-file depth the compiled programs assume: ``2m + 2``."""
    return 2 * m + 2


def pack_for_ntt(x: np.ndarray, m: int) -> np.ndarray:
    """Arrange a length-``N`` vector into the VPU's memory rows (each
    vector of an ``(..., N)`` stack into its own rows): the input layout
    of the forward NTT and of the automorphism.

    Row ``jr``, lane ``l`` gets ``x[l * (N/m) + jr]``: the ``m x N/m``
    matrix with its row index across the lanes, one column per row.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if n % m:
        raise NttMappingError(f"N={n} is not a multiple of m={m}")
    rows = n // m
    return x.reshape(*x.shape[:-1], m, rows).swapaxes(-1, -2).copy()


def unpack_columns(memory: VectorMemory | np.ndarray, n: int, m: int,
                   base_row: int = 0) -> np.ndarray:
    """Inverse of :func:`pack_for_ntt`: the vector held from ``base_row``
    on by a memory, or by each image of an ``(..., rows, m)`` stack (the
    inverse NTT's and the automorphism's output layout).  A new array,
    copied once."""
    data = memory if isinstance(memory, np.ndarray) else memory.data
    cols = data[..., base_row:base_row + n // m, :]
    out = np.empty(cols.shape[:-2] + (n,), dtype=cols.dtype)
    out.reshape(*cols.shape[:-2], m, n // m)[...] = cols.swapaxes(-1, -2)
    return out


def unpack_ntt_result(memory: VectorMemory | np.ndarray, n: int, m: int,
                      base_row: int = 0) -> np.ndarray:
    """Reassemble the natural-order NTT result from the final layout of
    a memory, or of each image of an ``(..., rows, m)`` stack."""
    data = memory if isinstance(memory, np.ndarray) else memory.data
    rows = data[..., base_row:base_row + n // m, :]
    return rows.reshape(*rows.shape[:-2], -1).take(_result_order(n, m),
                                                   axis=-1)


@lru_cache(maxsize=None)
def _result_order(n: int, m: int) -> np.ndarray:
    """Where each natural-order value sits in the flattened final layout
    (read-only): the layout recursion run once on the positions."""
    order = _unpack(np.arange(n).reshape(n // m, m), m)
    order.setflags(write=False)
    return order


def _unpack(rows: np.ndarray, m: int) -> np.ndarray:
    bitrev = bit_reverse_indices(m)
    if rows.shape[0] == 1:
        out = np.empty(m, dtype=rows.dtype)
        out[bitrev] = rows[0]  # X[br(p)] = row[p]
        return out
    if rows.shape[0] < m:
        # Ragged leaf: packed layout — row r', lane g*c + u holds
        # X[k1 + m*k2] with k1 = br_m(g*c + r'), k2 = br_c(u).
        c = rows.shape[0]
        out = np.empty(c * m, dtype=rows.dtype)
        out[bitrev.reshape(m // c, c).T[:, :, None]
            + m * bit_reverse_indices(c)] = rows.reshape(c, m // c, c)
        return out
    ntiles = rows.shape[0] // m
    out = np.empty(rows.shape[0] * m, dtype=rows.dtype)
    for p1 in range(m):
        sub = _unpack(rows[p1 * ntiles:(p1 + 1) * ntiles], m)
        # X[k1 + m * ksub] with k1 = br(p1).
        out[int(bitrev[p1])::m] = sub
    return out


def pack_ntt_values(values: np.ndarray, m: int) -> np.ndarray:
    """Inverse of :func:`unpack_ntt_result`: natural-order NTT values to
    the memory layout the inverse-transform program consumes."""
    values = np.asarray(values)
    out = np.empty(values.shape, dtype=values.dtype)
    out[..., _result_order(values.shape[-1], m)] = values
    return out.reshape(*values.shape[:-1], -1, m)


# ---------------------------------------------------------------------------
# Small (length-m) NTTs on the CG network
# ---------------------------------------------------------------------------
# A root is a ``psi``-exponent of the program's table: ``root^k`` is
# ``root * k``.


def compile_small_ntt(m: int, root: int, program: Program,
                      data_reg: int = _R_WORK) -> None:
    """Emit a length-``m`` forward CG-DIF NTT on one register row.

    ``root`` is the exponent of an order-``m`` root of unity.  Natural-
    order input across lanes; bit-reversed output.  Each stage is one
    fused :class:`NttStage` (CG gather + paired-lane DIF butterfly in a
    single cycle, as in Fig. 1c), in place in ``data_reg``.
    """
    compile_grouped_ntt(m, m, root, program, data_reg)


def _group_shape(m: int, c: int) -> tuple[int, int]:
    """``(log2 c, m / c)`` of a grouped transform whose group size ``c``
    is a power of two in ``[2, m]`` dividing ``m``."""
    if c < 2 or c > m or c & (c - 1):
        raise NttMappingError(f"group size must be a power of two in [2, m], got {c}")
    if m % c:
        raise NttMappingError(f"group size {c} does not divide m={m}")
    return c.bit_length() - 1, m // c


def compile_grouped_ntt(m: int, c: int, root: int, program: Program,
                        data_reg: int = _R_WORK) -> None:
    """Emit ``m/c`` independent length-``c`` NTTs on one register row.

    The short-last-dimension mode of §IV-A: the CG network splits into
    ``m/c`` groups of size ``c``; every group transforms its own
    ``c``-element sub-vector (natural order in, bit-reversed out) with
    the same stage sequence, keeping all lanes busy.  ``root`` is the
    exponent of an order-``c`` root of unity.  ``c = m`` is the
    full-width transform of :func:`compile_small_ntt`.
    """
    log_c, groups = _group_shape(m, c)
    for stage in range(log_c):
        row = program.twiddle_row(
            [root * k for k in cg_dif_exponents(c, stage)] * groups)
        program.append(NttStage("dif", data_reg, data_reg, row,
                                group_size=c if c < m else None))


def compile_grouped_intt(m: int, c: int, root_inv: int, program: Program,
                         data_reg: int = _R_WORK, scale: bool = True) -> None:
    """Inverse of :func:`compile_grouped_ntt` (bit-reversed in,
    natural out, per-group ``c^{-1}`` scaling)."""
    log_c, groups = _group_shape(m, c)
    for stage in range(log_c):
        row = program.twiddle_row(
            [root_inv * k for k in cg_dit_exponents(c, stage)] * groups)
        program.append(NttStage("dit", data_reg, data_reg, row,
                                group_size=c if c < m else None))
    if scale:
        program.append(VMulScalar(data_reg, data_reg, program.scalar_word(c)))


def compile_small_intt(m: int, root_inv: int, program: Program,
                       data_reg: int = _R_WORK, scale: bool = True) -> None:
    """Emit a length-``m`` inverse CG-DIT NTT on one register row.

    Bit-reversed input (exactly the forward output); natural-order
    output.  Each stage is one fused :class:`NttStage` (paired-lane DIT
    butterfly + CG scatter); a final scalar multiply applies ``m^{-1}``.
    """
    compile_grouped_intt(m, m, root_inv, program, data_reg, scale)


# ---------------------------------------------------------------------------
# Full transforms
# ---------------------------------------------------------------------------


def _program(n: int, m: int, label: str) -> Program:
    """An empty program for an (n, m) pair the executable compiler takes.

    Any power-of-two ``n >= m`` compiles: full-width dimensions peel off
    until the remainder ``c < m``, which runs in the packed grouped-CG
    layout via :func:`repro.mapping.transpose.compile_packed_transpose`.
    """
    if m < 4 or m & (m - 1):
        raise NttMappingError(f"m must be a power of two >= 4, got {m}")
    if n < m or n & (n - 1):
        raise NttMappingError(
            f"N must be a power of two >= m; got N={n}, m={m}"
        )
    return Program(label=f"{label}-{n} on {m} lanes", n=n)


def compile_ntt(n: int, m: int) -> Program:
    """Compile a full length-``n`` forward NTT (cyclic, on ``omega =
    psi^2``) into a VPU program for every prime.

    Expects memory rows ``[0, n/m)`` pre-filled via :func:`pack_for_ntt`;
    leaves the result in the recursive layout read back by
    :func:`unpack_ntt_result`.
    """
    prog = _program(n, m, "ntt")
    _emit_forward(prog, n, m, list(range(n // m)), 2)
    return prog


def _emit_forward(prog: Program, n: int, m: int, rows: list[int],
                  root: int) -> None:
    big_r = n // m
    bitrev = bit_reverse_indices(m)
    for i, addr in enumerate(rows):
        prog.append(Load(_R_WORK, addr))
        compile_small_ntt(m, root * big_r, prog)  # order-m root
        if big_r > 1:
            # Inter-dimension twiddles omega^(k1 * jr), k1 = br(p).
            prog.append(VMulTwiddle(_R_WORK, _R_WORK, prog.twiddle_row(
                i * root * bitrev)))
        prog.append(Store(_R_WORK, addr))
    if big_r == 1:
        return
    if big_r < m:
        # Ragged tail: a short last dimension of length c = big_r runs in
        # the packed layout (m/c grouped small NTTs per row, §IV-A).
        _emit_packed_transpose(prog, m, big_r, rows)
        for addr in rows:
            prog.append(Load(_R_WORK, addr))
            compile_grouped_ntt(m, big_r, root * m, prog)
            prog.append(Store(_R_WORK, addr))
        return
    _emit_tile_transposes(prog, m, rows)
    ntiles = big_r // m
    for p1 in range(m):
        _emit_forward(prog, big_r, m, rows[p1 * ntiles:(p1 + 1) * ntiles],
                      root * m)


def _emit_packed_transpose(prog: Program, m: int, c: int,
                           rows: list[int]) -> None:
    """Load a c-row window, packed-transpose in register, store back."""
    for r in range(c):
        prog.append(Load(_TILE_A + r, rows[r]))
    compile_packed_transpose(m, c, _TILE_A, _TILE_A + c, prog)
    for r in range(c):
        prog.append(Store(_TILE_A + c + r, rows[r]))


def _emit_tile_transposes(prog: Program, m: int, rows: list[int]) -> None:
    """Transpose the next dimension across the lanes, tile by tile.

    Tile ``jrest`` gathers rows ``{j2 * ntiles + jrest}`` (the next
    dimension strided through the row space), transposes in-register,
    and scatters back to the same addresses — regrouping the rows into
    per-``p1`` contiguous blocks for the recursion.
    """
    ntiles = len(rows) // m
    tile_b = _TILE_A + m
    for jrest in range(ntiles):
        for j2 in range(m):
            prog.append(Load(_TILE_A + j2, rows[j2 * ntiles + jrest]))
        compile_tile_transpose(m, _TILE_A, tile_b, prog)
        for p1 in range(m):
            prog.append(Store(tile_b + p1, rows[p1 * ntiles + jrest]))


def _emit_psi_fold(prog: Program, n: int, m: int, sign: int) -> None:
    """Multiply coefficient ``j`` by ``psi^(sign * j)``, row by row."""
    rows = n // m
    for r in range(rows):
        # pack_for_ntt: row r, lane l holds x[l*rows + r].
        row = prog.twiddle_row(sign * (np.arange(m) * rows + r))
        prog.append(Load(_R_WORK, r))
        prog.append(VMulTwiddle(_R_WORK, _R_WORK, row))
        prog.append(Store(_R_WORK, r))


def compile_negacyclic_ntt(n: int, m: int) -> Program:
    """Forward negacyclic NTT entirely on the VPU.

    Prepends the ``psi``-folding pass (one element-wise twiddle multiply
    per memory row, using the lanes' element-wise mode) to the cyclic
    transform, so the CKKS ring kernel runs without any host-side
    arithmetic.  Layout contract identical to :func:`compile_ntt`.
    """
    prog = _program(n, m, "negacyclic-ntt")
    _emit_psi_fold(prog, n, m, 1)
    _emit_forward(prog, n, m, list(range(n // m)), 2)
    return prog


def compile_negacyclic_intt(n: int, m: int) -> Program:
    """Inverse negacyclic NTT entirely on the VPU (cyclic inverse, then
    the ``psi^{-1}`` unfolding pass)."""
    prog = _program(n, m, "negacyclic-intt")
    _emit_inverse(prog, n, m, list(range(n // m)), -2)
    _emit_psi_fold(prog, n, m, -1)
    return prog


def compile_intt(n: int, m: int) -> Program:
    """Compile the inverse transform consuming :func:`compile_ntt`'s
    output layout and restoring the :func:`pack_for_ntt` layout."""
    prog = _program(n, m, "intt")
    _emit_inverse(prog, n, m, list(range(n // m)), -2)
    return prog


def _emit_inverse(prog: Program, n: int, m: int, rows: list[int],
                  root_inv: int) -> None:
    big_r = n // m
    bitrev = bit_reverse_indices(m)
    if 1 < big_r < m:
        # Ragged tail, mirrored: grouped inverse NTTs, then the packed
        # transpose (an involution — the same movement returns the
        # full-width layout).
        for addr in rows:
            prog.append(Load(_R_WORK, addr))
            compile_grouped_intt(m, big_r, root_inv * m, prog)
            prog.append(Store(_R_WORK, addr))
        _emit_packed_transpose(prog, m, big_r, rows)
    elif big_r > 1:
        ntiles = big_r // m
        for p1 in range(m):
            _emit_inverse(prog, big_r, m, rows[p1 * ntiles:(p1 + 1) * ntiles],
                          root_inv * m)
        _emit_tile_transposes(prog, m, rows)
    for i, addr in enumerate(rows):
        prog.append(Load(_R_WORK, addr))
        if big_r > 1:
            prog.append(VMulTwiddle(_R_WORK, _R_WORK, prog.twiddle_row(
                i * root_inv * bitrev)))
        compile_small_intt(m, root_inv * big_r, prog)
        prog.append(Store(_R_WORK, addr))
