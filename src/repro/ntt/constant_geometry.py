"""Pease constant-geometry (CG) NTT.

The CG form reorganizes the iterative NTT so that **every stage uses the
identical inter-element permutation**: read the pair ``(j, j + n/2)``,
butterfly, write to ``(2j, 2j+1)`` (forward/DIF), or the mirror-image
pattern for the inverse/DIT direction.  A single fixed wiring therefore
serves all ``log n`` stages — this is precisely what the two CG stages of
the paper's inter-lane network implement (paper §III-B, refs [13], [14]).

Correctness rests on Pease's storage-map theorem, which we use directly:
after ``s`` CG-DIF stages, memory position ``p`` holds the Gentleman–Sande
working value of logical index ``ror^s(p)`` (rotate-right of the bit
string).  The stage twiddles below are the GS twiddles re-indexed through
that map, so CG-DIF is *element-for-element identical* to
:func:`repro.ntt.cooley_tukey.ntt_dif` (natural-order input, bit-reversed
output), and CG-DIT to :func:`intt_dit`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.ntt.bitrev import rotate_bits_left, rotate_bits_right
from repro.ntt.tables import NttTables


def dif_gather_permutation(n: int) -> np.ndarray:
    """The CG-DIF network permutation as an index array.

    ``out[2j] = in[j]`` and ``out[2j+1] = in[j + n/2]``: the two inputs of
    each butterfly land in adjacent positions (adjacent VPU lanes).
    Returned as ``src`` indices: ``out[p] = in[perm[p]]``.
    """
    if n <= 1 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    perm = np.empty(n, dtype=np.int64)
    half = n // 2
    for j in range(half):
        perm[2 * j] = j
        perm[2 * j + 1] = j + half
    return perm


def dit_scatter_permutation(n: int) -> np.ndarray:
    """The CG-DIT network permutation (inverse of the DIF gather).

    ``out[j] = in[2j]`` and ``out[j + n/2] = in[2j+1]``: butterfly results
    computed on adjacent positions are scattered back to strided order.
    """
    if n <= 1 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    perm = np.empty(n, dtype=np.int64)
    half = n // 2
    for j in range(half):
        perm[j] = 2 * j
        perm[j + half] = 2 * j + 1
    return perm


@lru_cache(maxsize=None)
def cg_dif_exponents(n: int, stage: int) -> tuple[int, ...]:
    """CG-DIF stage twiddles as exponents ``k`` of an order-``n`` root.

    Exponents, so one list serves any root: multi-dimensional
    decomposition runs its small NTTs on roots like ``omega_N^(N/m)``,
    which are fixed by the four-step algebra and cannot be swapped for
    another primitive root of the same order.

    Butterfly ``j`` (pairing positions ``j`` and ``j + n/2``) corresponds
    to the GS butterfly at logical index ``i = ror^stage(j)``; its twiddle
    is ``root^((i mod L) * 2^stage)`` with ``L = n / 2^(stage+1)``.
    """
    bits = n.bit_length() - 1
    half_block = n >> (stage + 1)  # GS "length" L at this stage
    return tuple((rotate_bits_right(j, stage, bits) % half_block) << stage
                 for j in range(n // 2))


@lru_cache(maxsize=None)
def cg_dit_exponents(n: int, stage: int) -> tuple[int, ...]:
    """CG-DIT stage twiddles as exponents ``k`` of an order-``n``
    inverse root.

    Butterfly ``j`` reads adjacent positions ``(2j, 2j+1)``; the logical
    index is ``i = rol^stage(2j)`` and the twiddle is
    ``root_inv^((i mod 2^stage) * n / 2^(stage+1))``.
    """
    bits = n.bit_length() - 1
    length = 1 << stage  # CT "length" at this stage
    step = n // (2 * length)
    return tuple((rotate_bits_left(2 * j, stage, bits) % length) * step
                 for j in range(n // 2))


def cg_dif_stage_twiddles(stage: int, tables: NttTables) -> list[int]:
    """Twiddles for CG-DIF stage ``stage`` using the tables' own root."""
    return [pow(tables.omega, k, tables.q)
            for k in cg_dif_exponents(tables.n, stage)]


def cg_dit_stage_twiddles(stage: int, tables: NttTables) -> list[int]:
    """Twiddles for CG-DIT stage ``stage`` using the tables' own root."""
    return [pow(tables.omega_inv, k, tables.q)
            for k in cg_dit_exponents(tables.n, stage)]


def cg_dif_stage(x: list[int], stage: int, tables: NttTables) -> list[int]:
    """Apply one CG-DIF stage: gather ``(j, j+n/2)`` -> butterfly ->
    adjacent ``(2j, 2j+1)``."""
    n, q = tables.n, tables.q
    half = n // 2
    twiddles = cg_dif_stage_twiddles(stage, tables)
    out = [0] * n
    for j in range(half):
        u = int(x[j])
        v = int(x[j + half])
        out[2 * j] = (u + v) % q
        out[2 * j + 1] = (u - v) * twiddles[j] % q
    return out


def cg_dit_stage(x: list[int], stage: int, tables: NttTables) -> list[int]:
    """Apply one CG-DIT stage: butterfly adjacent ``(2j, 2j+1)`` ->
    scatter to ``(j, j+n/2)``."""
    n, q = tables.n, tables.q
    half = n // 2
    twiddles = cg_dit_stage_twiddles(stage, tables)
    out = [0] * n
    for j in range(half):
        u = int(x[2 * j])
        v = int(x[2 * j + 1]) * twiddles[j] % q
        out[j] = (u + v) % q
        out[j + half] = (u - v) % q
    return out


def cg_dif_ntt(x: list[int], tables: NttTables) -> list[int]:
    """Full constant-geometry forward NTT (natural in, bit-reversed out)."""
    if len(x) != tables.n:
        raise ValueError(f"expected length {tables.n}, got {len(x)}")
    a = [int(v) % tables.q for v in x]
    for stage in range(tables.log_n):
        a = cg_dif_stage(a, stage, tables)
    return a


def cg_dit_intt(x: list[int], tables: NttTables) -> list[int]:
    """Full constant-geometry inverse NTT (bit-reversed in, natural out)."""
    if len(x) != tables.n:
        raise ValueError(f"expected length {tables.n}, got {len(x)}")
    a = [int(v) % tables.q for v in x]
    for stage in range(tables.log_n):
        a = cg_dit_stage(a, stage, tables)
    n_inv, q = tables.n_inv, tables.q
    return [v * n_inv % q for v in a]
