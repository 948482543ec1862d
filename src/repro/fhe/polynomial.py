"""Double-CRT polynomials for RNS-CKKS.

An :class:`RnsPoly` stores one residue row per modulus — the chain
primes of its level, optionally followed by the keyswitch special prime
— in either the coefficient or the evaluation (NTT) domain.  The unit
of work is the whole ``(L, n)`` residue matrix: ring operations
broadcast an ``(L, 1)`` prime column across the limbs, and NTTs and
automorphisms go through the active :mod:`repro.fhe.backend`'s batched
kernels in a single dispatch — which is how the whole FHE stack can run
on the behavioral VPU and how the numpy path reaches its throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.fhe.backend import get_backend


def _reduce_int_rows(coeffs: np.ndarray,
                     primes: tuple[int, ...]) -> np.ndarray | None:
    """Reduce integer coefficients modulo every prime in one broadcast.

    Returns the ``(L, n)`` uint64 matrix, or ``None`` when the input
    does not fit the int64 fast path (oversized big-int coefficients).
    Centered digits and sampled noise are always far below ``2**62``,
    so in practice only genuinely wide inputs (BFV lifts, CRT
    recompositions) fall back to the object-dtype path.
    """
    if any(q >= (1 << 31) for q in primes):
        return None
    if coeffs.dtype == object or not np.issubdtype(coeffs.dtype, np.integer):
        try:
            coeffs = coeffs.astype(np.int64)
        except (OverflowError, TypeError, ValueError):
            return None
    elif coeffs.dtype == np.uint64 and len(coeffs) \
            and coeffs.max() > np.iinfo(np.int64).max:
        return None
    else:
        coeffs = coeffs.astype(np.int64)
    q_col = np.array(primes, dtype=np.int64)[:, None]
    return (coeffs[None, :] % q_col).astype(np.uint64)


@dataclass
class RnsPoly:
    """A polynomial in RNS form.

    Attributes
    ----------
    residues:
        ``(len(primes), n)`` uint64 array; row ``i`` holds the polynomial
        modulo ``primes[i]``.
    primes:
        The moduli, in chain order (special prime last when present).
    is_eval:
        True when rows are natural-order evaluation values.
    """

    residues: np.ndarray
    primes: tuple[int, ...]
    is_eval: bool

    def __post_init__(self) -> None:
        self.residues = np.asarray(self.residues, dtype=np.uint64)
        if self.residues.ndim != 2 or self.residues.shape[0] != len(self.primes):
            raise ValueError(
                f"residue shape {self.residues.shape} does not match "
                f"{len(self.primes)} primes"
            )

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n: int, primes: tuple[int, ...], is_eval: bool = True) -> "RnsPoly":
        return cls(np.zeros((len(primes), n), dtype=np.uint64), primes, is_eval)

    @classmethod
    def from_int_coeffs(cls, coeffs: np.ndarray, primes: tuple[int, ...],
                        to_eval: bool = True) -> "RnsPoly":
        """Build from signed integer coefficients (reduced per limb).

        Inputs that fit int64 — every sampled secret/noise vector and
        every centered keyswitch digit — reduce in one broadcast modulo
        the ``(L, 1)`` prime column; only oversized big-int coefficients
        take the object-dtype per-limb path.
        """
        coeffs = np.asarray(coeffs)
        rows = _reduce_int_rows(coeffs, primes)
        if rows is None:
            wide = coeffs.astype(object)
            rows = np.stack([
                (wide % q).astype(np.uint64) for q in primes
            ])
        poly = cls(rows, primes, is_eval=False)
        return poly.to_eval() if to_eval else poly

    # -- basic properties ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.residues.shape[1]

    @property
    def num_limbs(self) -> int:
        return len(self.primes)

    def copy(self) -> "RnsPoly":
        return RnsPoly(self.residues.copy(), self.primes, self.is_eval)

    @property
    def _q_col(self) -> np.ndarray:
        """The ``(L, 1)`` broadcast column of moduli."""
        return np.array(self.primes, dtype=np.uint64)[:, None]

    def _check_compatible(self, other: "RnsPoly") -> None:
        if self.primes != other.primes:
            raise ValueError(
                f"modulus mismatch: {len(self.primes)} vs {len(other.primes)} limbs"
            )
        if self.is_eval != other.is_eval:
            raise ValueError("domain mismatch (coeff vs eval)")

    # -- ring operations -----------------------------------------------------
    #
    # All limb-wise ops run as one broadcast over the full residue
    # matrix.  Residues stay below 2**30 (30-bit primes), so sums fit
    # uint64 with room and products fit below 2**60 — no per-limb loop,
    # no intermediate overflow.

    def __add__(self, other: "RnsPoly") -> "RnsPoly":
        self._check_compatible(other)
        out = (self.residues + other.residues) % self._q_col
        return RnsPoly(out, self.primes, self.is_eval)

    def __sub__(self, other: "RnsPoly") -> "RnsPoly":
        self._check_compatible(other)
        q_col = self._q_col
        out = (self.residues + (q_col - other.residues)) % q_col
        return RnsPoly(out, self.primes, self.is_eval)

    def __neg__(self) -> "RnsPoly":
        q_col = self._q_col
        out = (q_col - self.residues) % q_col
        return RnsPoly(out, self.primes, self.is_eval)

    def __mul__(self, other: "RnsPoly") -> "RnsPoly":
        """Ring product; both operands must be in the evaluation domain
        (point-wise multiply, the form the lanes execute)."""
        self._check_compatible(other)
        if not self.is_eval:
            raise ValueError("ring multiplication requires eval domain")
        out = self.residues * other.residues % self._q_col
        return RnsPoly(out, self.primes, self.is_eval)

    def mul_scalar(self, scalar: int) -> "RnsPoly":
        s_col = np.array([scalar % q for q in self.primes],
                         dtype=np.uint64)[:, None]
        out = self.residues * s_col % self._q_col
        return RnsPoly(out, self.primes, self.is_eval)

    # -- domain conversion ----------------------------------------------------

    def to_eval(self) -> "RnsPoly":
        if self.is_eval:
            return self.copy()
        out = get_backend().forward_ntt_batch(self.residues, self.primes)
        return RnsPoly(out, self.primes, is_eval=True)

    def to_coeff(self) -> "RnsPoly":
        if not self.is_eval:
            return self.copy()
        out = get_backend().inverse_ntt_batch(self.residues, self.primes)
        return RnsPoly(out, self.primes, is_eval=False)

    # -- Galois action ---------------------------------------------------------

    def automorphism(self, galois_k: int) -> "RnsPoly":
        """Apply ``X -> X^k`` (evaluation domain: a pure permutation)."""
        if not self.is_eval:
            raise ValueError("automorphism is applied in the eval domain")
        out = get_backend().automorphism_eval_batch(
            self.residues, galois_k, self.primes)
        return RnsPoly(out, self.primes, is_eval=True)

    # -- level / limb management ------------------------------------------------

    def limbs_prefix(self, count: int) -> "RnsPoly":
        """Keep only the first ``count`` limbs (level truncation)."""
        if not 1 <= count <= self.num_limbs:
            raise ValueError(f"count {count} out of range")
        return RnsPoly(self.residues[:count], self.primes[:count], self.is_eval)

    def centered_limb(self, index: int) -> np.ndarray:
        """One limb's coefficients lifted to the balanced range, as int64
        (requires coefficient domain)."""
        if self.is_eval:
            raise ValueError("centered lift requires coefficient domain")
        q = self.primes[index]
        row = self.residues[index].astype(np.int64)
        return np.where(row > q // 2, row - q, row)

    def centered_lift(self) -> np.ndarray:
        """Centered CRT lift to big-integer (object dtype) coefficients
        in ``(-Q/2, Q/2]``, ``Q`` the product of this polynomial's
        primes (either domain; golden-model code, one pass per limb)."""
        coeff = self.to_coeff()
        q_prod = math.prod(coeff.primes)
        total = np.zeros(self.n, dtype=object)
        for i, q in enumerate(coeff.primes):
            q_hat = q_prod // q
            factor = q_hat * pow(q_hat, -1, q) % q_prod
            total = (total + coeff.residues[i].astype(object) * factor) % q_prod
        return np.where(total > q_prod // 2, total - q_prod, total)
