"""Double-CRT polynomials for RNS-CKKS.

An :class:`RnsPoly` stores one residue row per modulus — the chain
primes of its level, optionally followed by the keyswitch special prime
— in either the coefficient or the evaluation (NTT) domain.  The unit
of work is the whole ``(L, n)`` residue matrix: ring operations
run over it in one expression and end in :func:`reduce_rows`, and NTTs
and automorphisms go through the active :mod:`repro.fhe.backend`'s batched
kernels in a single dispatch — which is how the whole FHE stack can run
on the behavioral VPU and how the numpy path reaches its throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.fhe.backend import get_backend
from repro.ntt.negacyclic import check_host_moduli

_INT64_MAX = (1 << 63) - 1


def _reduce_lanes(x: np.ndarray, q, quot: np.ndarray) -> None:
    """``x %= q`` in place on integer lanes, through the buffer ``quot``
    (a floor division by a scalar is a multiply-shift in numpy; ``%``
    is a hardware divide)."""
    np.floor_divide(x, q, out=quot)
    quot *= q
    x -= quot


def reduce_rows(x: np.ndarray, primes: tuple[int, ...]) -> np.ndarray:
    """Reduce row ``i`` of ``x`` modulo ``primes[i]``, in place.

    ``x % q_col`` for an ``(L, n)`` uint64 or int64 stack, by one
    scalar floor division per row (a negative int64 word lands in
    ``[0, q)``, as under ``%``).  Returns ``x``.

    The ring ops, the integer-coefficient reduction, the numpy
    keyswitch accumulators and the top-limb division all end here:
    ``%`` by an ``(L, 1)`` column divides word by word, a scalar
    divisor is numpy's multiply-shift.
    """
    quot = np.empty(x.shape[1:], dtype=x.dtype)
    for row, q in zip(x, primes):
        _reduce_lanes(row, x.dtype.type(q), quot)
    return x


def _reduce_int_rows(coeffs: np.ndarray,
                     primes: tuple[int, ...]) -> np.ndarray | None:
    """Reduce integer coefficients modulo every prime (:func:`reduce_rows`).

    Returns the ``(L, n)`` uint64 matrix, or ``None`` when the input
    does not fit int64.  Centered digits, sampled noise and every
    lifted value inside the int64 window of :func:`_centered_crt` (the
    inverse) fit; only genuinely wide inputs (BFV's tensor products of
    uniform operands) fall back to the object-dtype path.
    """
    if coeffs.dtype == object or not np.issubdtype(coeffs.dtype, np.integer):
        try:
            coeffs = coeffs.astype(np.int64)
        except (OverflowError, TypeError, ValueError):
            return None
    elif coeffs.dtype == np.uint64 and len(coeffs) \
            and coeffs.max() >= 1 << 63:
        return None
    else:
        coeffs = coeffs.astype(np.int64, copy=False)
    rows = reduce_rows(np.tile(coeffs, (len(primes), 1)), primes)
    return rows.view(np.uint64)


@lru_cache(maxsize=64)
def _garner_constants(primes: tuple[int, ...]) -> tuple:
    """Per limb ``i``: ``(P_i^-1 mod q_i, (-P_j P_i^-1 mod q_i for
    j < i))``, where ``P_i = q_0 ... q_{i-1}`` is the mixed-radix
    weight of digit ``i``."""
    weights = [math.prod(primes[:i]) for i in range(len(primes))]
    rows = []
    for i, q in enumerate(primes):
        inv = pow(weights[i], -1, q)
        rows.append((inv, tuple(-w * inv % q for w in weights[:i])))
    return tuple(rows)


def _garner_digits(residues: np.ndarray,
                   primes: tuple[int, ...]) -> np.ndarray:
    """Mixed-radix digits of each column's CRT value ``X``,
    ``X = d_0 + d_1 P_1 + ... + d_{L-1} P_{L-1}`` with ``0 <= d_i < q_i``,
    written over the ``(L, n)`` uint64 ``residues``: row ``i`` is read
    once, then holds ``d_i``.

    Garner's recurrence ``d_i = (r_i - X mod P_i) P_i^-1 (mod q_i)``,
    written as ``r_i P_i^-1 + sum_j d_j (-P_j P_i^-1)``.  Every term is
    below ``2**60`` (every prime is below ``2**30``), so the lane sums
    three of them onto a reduced partial sum before it reduces again.
    """
    digits = residues
    quot = np.empty(residues.shape[1], dtype=np.uint64)
    for i, (q, (inv, terms)) in enumerate(
            zip(primes, _garner_constants(primes))):
        q = np.uint64(q)
        acc = digits[i]
        acc *= np.uint64(inv)
        for j, (digit, c) in enumerate(zip(digits, terms), start=1):
            if j % 3 == 0:
                _reduce_lanes(acc, q, quot)
            acc += digit * np.uint64(c)
        _reduce_lanes(acc, q, quot)
    return digits


def _centered_crt(residues: np.ndarray,
                  primes: tuple[int, ...]) -> np.ndarray:
    """Centered CRT lift of coefficient-domain residues, which it may
    overwrite: each column's ``X mod Q`` in ``(-Q/2, Q/2]``, exact.

    int64 when every value fits int64, object dtype (Python ints)
    otherwise.  The lift reads each value off its Garner digits: the
    sign is a digit-wise comparison with ``(Q - 1) / 2``, the magnitude
    is assembled in uint64 when it fits the int64 window and by
    object-dtype Horner only for the columns outside it.
    """
    digits = _garner_digits(residues, primes)
    # X > (Q - 1) / 2, whose digits are all (q_i - 1) / 2: compare from
    # the most significant digit down.
    negative = np.zeros(residues.shape[1], dtype=bool)
    tied = ~negative
    for q, digit in zip(primes[::-1], digits[::-1]):
        half = np.uint64(q // 2)
        negative |= tied & (digit > half)
        tied &= digit == half
        if not tied.any():
            break
    # The window: the first k limbs, whose product P_k fits int64.  A
    # negative value X - Q is -(M + 1), M = Q - 1 - X, whose digits are
    # q_i - 1 - d_i; a positive one is M = X.  The value fits int64 iff
    # the digits of M above k are 0 and m_k P_k + (M mod P_k) fits.
    k, weight = 0, 1
    while k < len(primes) and weight * primes[k] <= _INT64_MAX:
        weight *= primes[k]
        k += 1
    low = digits[k - 1].copy()
    for q, digit in zip(primes[:k - 1][::-1], digits[:k - 1][::-1]):
        low *= np.uint64(q)
        low += digit
    magnitude = np.where(negative, np.uint64(weight - 1) - low, low)
    fits = None
    if k < len(primes):
        q_top = np.uint64(primes[k])
        top = np.where(negative, q_top - np.uint64(1) - digits[k], digits[k])
        fits = top <= np.uint64(_INT64_MAX // weight)
        if k + 1 < len(primes):
            high = digits[k + 1:]
            q_high = np.array(primes[k + 1:], dtype=np.uint64)[:, None]
            fits &= np.where(negative, (high == q_high - np.uint64(1)).all(0),
                             ~high.any(0))
        magnitude += top * np.uint64(weight)  # wraps only outside the window
        fits &= magnitude <= np.uint64(_INT64_MAX)
    # -(M + 1) is ~M in two's complement.
    values = magnitude.view(np.int64)
    values = np.where(negative, ~values, values)
    if fits is None or fits.all():
        return values
    out = values.astype(object)
    outside = np.flatnonzero(~fits)
    total = digits[-1, outside].astype(object)
    for q, digit in zip(primes[:-1][::-1], digits[:-1][::-1]):
        total = total * q + digit[outside].astype(object)
    out[outside] = np.where(negative[outside], total - math.prod(primes),
                            total)
    return out


@dataclass
class RnsPoly:
    """A polynomial in RNS form.

    Attributes
    ----------
    residues:
        ``(len(primes), n)`` uint64 array; row ``i`` holds the polynomial
        modulo ``primes[i]``.
    primes:
        The moduli, in chain order (special prime last when present);
        each below ``2**30``, or construction raises
        :class:`~repro.ntt.negacyclic.HostModulusError`.
    is_eval:
        True when rows are natural-order evaluation values.
    """

    residues: np.ndarray
    primes: tuple[int, ...]
    is_eval: bool

    def __post_init__(self) -> None:
        check_host_moduli(self.primes)
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
        every centered keyswitch digit — reduce row by row in int64
        (:func:`reduce_rows`); only oversized big-int coefficients
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
    # All limb-wise ops run as one expression over the full residue
    # matrix and one reduce_rows.  Every prime is below 2**30
    # (__post_init__ refuses any other), so sums fit uint64 with room
    # and products fit below 2**60 — no intermediate overflow.

    def __add__(self, other: "RnsPoly") -> "RnsPoly":
        self._check_compatible(other)
        out = reduce_rows(self.residues + other.residues, self.primes)
        return RnsPoly(out, self.primes, self.is_eval)

    def __sub__(self, other: "RnsPoly") -> "RnsPoly":
        self._check_compatible(other)
        out = reduce_rows(self.residues + (self._q_col - other.residues),
                          self.primes)
        return RnsPoly(out, self.primes, self.is_eval)

    def __neg__(self) -> "RnsPoly":
        out = reduce_rows(self._q_col - self.residues, self.primes)
        return RnsPoly(out, self.primes, self.is_eval)

    def __mul__(self, other: "RnsPoly") -> "RnsPoly":
        """Ring product; both operands must be in the evaluation domain
        (point-wise multiply, the form the lanes execute)."""
        self._check_compatible(other)
        if not self.is_eval:
            raise ValueError("ring multiplication requires eval domain")
        out = reduce_rows(self.residues * other.residues, self.primes)
        return RnsPoly(out, self.primes, self.is_eval)

    def mul_scalar(self, scalar: int) -> "RnsPoly":
        s_col = np.array([scalar % q for q in self.primes],
                         dtype=np.uint64)[:, None]
        out = reduce_rows(self.residues * s_col, self.primes)
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

    def centered_coeffs(self) -> np.ndarray:
        """The centered lift, as int64 when it fits.

        Exact values in ``(-Q/2, Q/2]``, ``Q`` the product of this
        polynomial's primes (either domain): int64 when every
        coefficient fits int64, object dtype otherwise.  See
        :func:`_centered_crt`."""
        coeff = self.to_coeff()  # a fresh matrix in either domain
        return _centered_crt(coeff.residues, coeff.primes)

    def centered_lift(self) -> np.ndarray:
        """Centered CRT lift to exact integer (object dtype) coefficients.

        :meth:`centered_coeffs` as Python ints, in ``(-Q/2, Q/2]``
        (either domain).  It runs in word arithmetic: the sign and every
        value that fits int64 come off the Garner digits, and only values
        outside that window become big integers."""
        return self.centered_coeffs().astype(object, copy=False)
