"""The vectorized numpy kernels: the default backend, the reference the
compiled and VPU paths are checked against, and — in its clamped and
golden modes — the two software rungs of the degradation ladder."""

from __future__ import annotations

import numpy as np

from repro.automorphism.mapping import galois_eval_permutation
from repro.ntt.negacyclic import NegacyclicNtt, get_batched_ntt


class NumpyBackend:
    """Vectorized numpy kernels (the default).

    ``mode`` selects the rung of the integrity layer's degradation
    ladder this instance runs at:

    * ``"fast"`` — the default: the batch plan's schedule (Shoup
      stages, the clamp-free inverse where the plan proves it).
    * ``"clamped"`` — the same plan and tables, but every butterfly
      product strictly reduced (no Shoup companions, no clamp-free
      inverse).
    * ``"golden"`` — per-row :class:`NegacyclicNtt` reference, the
      slowest and simplest path.
    """

    name = "numpy"
    #: Class-level default so subclasses overriding __init__ (test
    #: doubles that count kernel calls) inherit the fast path.
    mode = "fast"

    def __init__(self, mode: str = "fast"):
        if mode not in ("fast", "clamped", "golden"):
            raise ValueError(f"unknown NumpyBackend mode {mode!r}")
        self.mode = mode

    def forward_ntt_batch(self, residues: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        """Forward-NTT every limb of an ``(L, n)`` residue matrix in one
        stacked dispatch (row ``i`` modulo ``primes[i]``)."""
        residues = np.asarray(residues)
        if self.mode == "golden":
            return _per_row(NegacyclicNtt.forward, residues, primes)
        return get_batched_ntt(residues.shape[1], primes).forward(
            residues, clamped=self.mode == "clamped")

    def inverse_ntt_batch(self, values: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        """Inverse-NTT every limb of an ``(L, n)`` value matrix at once."""
        values = np.asarray(values)
        if self.mode == "golden":
            return _per_row(NegacyclicNtt.inverse, values, primes)
        return get_batched_ntt(values.shape[1], primes).inverse(
            values, clamped=self.mode == "clamped")

    def automorphism_eval_batch(self, values: np.ndarray, galois_k: int,
                                primes: tuple[int, ...]) -> np.ndarray:
        """Galois action on every limb: the permutation is prime-independent,
        so the whole matrix moves in one fancy-indexed assignment."""
        values = np.asarray(values)
        perm = galois_eval_permutation(values.shape[1], galois_k)
        out = np.empty_like(values)
        out[:, perm.destinations()] = values
        return out


def _per_row(transform, values: np.ndarray,
             primes: tuple[int, ...]) -> np.ndarray:
    """Row ``i`` through the reference ``transform`` modulo ``primes[i]``."""
    if len(values) != len(primes):
        raise ValueError(f"{len(values)} rows for {len(primes)} primes")
    n = values.shape[1]
    return np.stack([transform(NegacyclicNtt(n, q), row)
                     for row, q in zip(values, primes)])


_LADDER = (NumpyBackend(mode="clamped"), NumpyBackend(mode="golden"))


def ladder_backend(level: int) -> NumpyBackend:
    """The software rung of the degradation ladder at ``level``: 1 =
    clamped batched numpy, 2 and beyond = golden per-row.  Level 0 is
    whatever backend the caller was degrading from."""
    if level < 1:
        raise ValueError(f"ladder level {level} has no software rung")
    return _LADDER[min(level, 2) - 1]
