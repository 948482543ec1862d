"""Homomorphic linear algebra: encrypted matrix-vector products.

These are the linear phases of CKKS bootstrapping (CoeffToSlot /
SlotToCoeff) and of private inference — and the workloads that make
HRot, hence the paper's automorphism hardware, the hot kernel:

* :func:`encrypted_matvec` — the Halevi–Shoup diagonal method:
  ``y = sum_d diag_d(W) * rot(x, d)``; one rotation per nonzero diagonal.
* :func:`encrypted_matvec_bsgs` — the baby-step/giant-step variant that
  cuts rotations from ``d`` to ``~2*sqrt(d)`` by pre-rotating diagonals,
  the optimization every bootstrapping implementation uses.

Both operate on a square ``dim x dim`` matrix acting on a vector that is
tiled across the slot ring (cyclic tiling makes slot rotations emulate
length-``dim`` rotations).

Both rotate *one* ciphertext many times — every non-zero diagonal's
step, or the baby steps some non-zero diagonal reads — and make one
:meth:`~repro.fhe.ckks.CkksContext.rotate_hoisted` call for them, so the
input's digit NTT batch is paid once a matvec (on a backend with the
``keyswitch_apply`` slot: one kernel call).  BSGS giant steps rotate
distinct sums and stay plain rotations.  :func:`required_rotations`
names the Galois keys, all a ``dim`` can need or only those a given
matrix does.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fhe.ckks import Ciphertext, CkksContext


def matrix_diagonal(matrix: np.ndarray, d: int) -> np.ndarray:
    """The d-th generalized diagonal: ``diag_d[i] = W[i][(i + d) % dim]``."""
    dim = matrix.shape[0]
    i = np.arange(dim)
    return matrix[i, (i + d) % dim]


def _tile(vec: np.ndarray, slots: int) -> np.ndarray:
    dim = len(vec)
    if slots % dim:
        raise ValueError(f"matrix dim {dim} must divide slot count {slots}")
    return np.tile(vec, slots // dim)


def _baby_steps(dim: int) -> int:
    """The BSGS inner extent: the largest divisor of ``dim`` not above
    ``sqrt(dim)``."""
    baby = int(math.isqrt(dim))
    while dim % baby:
        baby -= 1
    return baby


def _nonzero_diagonals(matrix: np.ndarray) -> dict[int, np.ndarray]:
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim):
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    return {d: diag for d in range(dim)
            if np.any(diag := matrix_diagonal(matrix, d))}


def required_rotations(dim: int, bsgs: bool = False,
                       matrix: np.ndarray | None = None) -> list[int]:
    """Galois keys a matvec needs (generate these up front): every
    step a ``dim x dim`` matrix can ask for, or — given ``matrix`` —
    only those its non-zero diagonals do."""
    diagonals = range(dim) if matrix is None else _nonzero_diagonals(matrix)
    if not bsgs:
        return sorted(d for d in diagonals if d)
    baby = _baby_steps(dim)
    steps = {d % baby for d in diagonals} | {d - d % baby for d in diagonals}
    return sorted(steps - {0})


def _sum(ctx: CkksContext, terms: list[Ciphertext]) -> Ciphertext:
    acc = terms[0]
    for term in terms[1:]:
        acc = ctx.add(acc, term)
    return acc


def encrypted_matvec(ctx: CkksContext, ct: Ciphertext,
                     matrix: np.ndarray) -> Ciphertext:
    """Diagonal-method ``W @ x``: one rotation per non-zero diagonal off
    the main one, all of them from one hoisted call."""
    diagonals = _nonzero_diagonals(matrix)
    slots = ctx.params.slots
    if not diagonals:
        return ctx.multiply_plain(ct, np.zeros(slots))
    rotated = ctx.rotate_hoisted(ct, list(diagonals))
    return _sum(ctx, [ctx.multiply_plain(rot, _tile(diag, slots))
                      for rot, diag in zip(rotated, diagonals.values())])


def encrypted_matvec_bsgs(ctx: CkksContext, ct: Ciphertext,
                          matrix: np.ndarray) -> Ciphertext:
    """Baby-step/giant-step ``W @ x``: ``~2*sqrt(dim)`` rotations.

    Decompose ``d = g*n1 + b``; then
    ``y = sum_g rot( sum_b rot(diag_{g*n1+b}, -g*n1) * rot(x, b), g*n1 )``
    — the inner rotations of ``x`` are shared across all ``g``, rotate
    one ciphertext and so come from one hoisted call (only the baby
    steps some non-zero diagonal reads); the giant steps rotate distinct
    sums and stay plain rotations.
    """
    diagonals = _nonzero_diagonals(matrix)
    slots = ctx.params.slots
    if not diagonals:
        return ctx.multiply_plain(ct, np.zeros(slots))
    baby = _baby_steps(matrix.shape[0])
    steps = sorted({d % baby for d in diagonals})
    baby_rotations = dict(zip(steps, ctx.rotate_hoisted(ct, steps)))
    outer = []
    for shift in sorted({d - d % baby for d in diagonals}):
        # Pre-rotate each diagonal by -shift so the outer rotation lands
        # it in place.
        inner = _sum(ctx, [
            ctx.multiply_plain(baby_rotations[d - shift],
                               _tile(np.roll(diag, shift), slots))
            for d, diag in diagonals.items() if d - d % baby == shift])
        outer.append(ctx.rotate(inner, shift) if shift else inner)
    return _sum(ctx, outer)
