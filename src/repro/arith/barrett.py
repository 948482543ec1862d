"""Bit-accurate model of the Barrett-reduction modular multiplier.

Each VPU lane contains one modular multiplier built around Barrett
reduction (paper §III-A).  The paper chooses Barrett over Montgomery
because keyswitch base conversion mixes residues across moduli, which a
Montgomery representation would force in and out of Montgomery form.

This module models the datapath at the word level so that hardware cost
accounting (:mod:`repro.hwmodel.components`) can point at concrete
multiplier/adder widths, and so the functional unit tests can confirm the
reduction never needs more than the documented correction steps.

The classic Barrett scheme for a ``w``-bit modulus ``q``:

* precompute ``mu = floor(2**(2w) / q)`` (a ``w+1``-bit constant);
* for a product ``z = a*b < q**2``:
  ``t = z - floor((z >> (w - 1)) * mu >> (w + 1)) * q``;
* then ``t < 3q`` (classic Barrett quotient error <= 2) and at most two
  conditional subtractions finish the reduction.

We track the maximum number of correction subtractions actually used so
tests can assert the classic two-correction bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _lane_words(q: int) -> tuple[int, int, int, int]:
    """The uint64 datapath's constants for ``q``: ``w - 1``, ``w + 1``,
    ``mu`` and ``q``."""
    w = q.bit_length()
    return w - 1, w + 1, (1 << (2 * w)) // q, q


def _reduce_lanes(z: np.ndarray, low, high, mu, q) -> np.ndarray:
    """The uint64 datapath's reduction of products ``z < q**2`` from the
    constants of :func:`_lane_words` (scalars, or arrays shaped like
    ``z``)."""
    t = z - (((z >> low) * mu) >> high) * q
    # Two conditional subtractions: ``t - q`` wraps above ``t`` exactly
    # when ``t < q``.
    t = np.minimum(t, t - q)
    return np.minimum(t, t - q)


@dataclass
class BarrettReducer:
    """A Barrett modular multiplier for a fixed modulus.

    Parameters
    ----------
    q:
        The modulus.  Must satisfy ``2 < q < 2**62`` so that the modelled
        128-bit internal product path suffices.

    Attributes
    ----------
    width:
        Bit width ``w`` of the modulus (``2**(w-1) <= q < 2**w``).
    mu:
        Precomputed reciprocal ``floor(2**(2w) / q)``.
    max_corrections_seen:
        Largest number of conditional subtractions any reduction needed;
        classic Barrett guarantees this stays <= 2 for the chosen shifts.
    """

    q: int
    width: int = field(init=False)
    mu: int = field(init=False)
    max_corrections_seen: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 2 < self.q < (1 << 62):
            raise ValueError(f"modulus out of supported range: {self.q}")
        self.width = self.q.bit_length()
        self.mu = (1 << (2 * self.width)) // self.q
        if self.q < (1 << 31):
            self._lane_constants = tuple(
                np.uint64(c) for c in _lane_words(self.q))

    # -- scalar datapath ---------------------------------------------------

    def reduce(self, z: int) -> int:
        """Reduce ``z`` (``0 <= z < q**2``) modulo ``q``.

        Mirrors the hardware datapath: one ``(w+1) x (w+1)`` multiply by
        ``mu``, one ``w x w`` multiply by ``q``, one subtraction, and at
        most two correction subtractions.
        """
        if z < 0 or z >= self.q * self.q:
            raise ValueError(f"Barrett input out of range [0, q^2): {z}")
        w = self.width
        q_hat = ((z >> (w - 1)) * self.mu) >> (w + 1)
        t = z - q_hat * self.q
        corrections = 0
        while t >= self.q:
            t -= self.q
            corrections += 1
        if corrections > self.max_corrections_seen:
            self.max_corrections_seen = corrections
        return t

    def mul(self, a: int, b: int) -> int:
        """Return ``a * b mod q`` through the Barrett datapath."""
        a %= self.q
        b %= self.q
        return self.reduce(a * b)

    def add(self, a: int, b: int) -> int:
        """Return ``a + b mod q`` (the lane's modular adder)."""
        t = (a % self.q) + (b % self.q)
        return t - self.q if t >= self.q else t

    def sub(self, a: int, b: int) -> int:
        """Return ``a - b mod q`` (the lane's modular subtractor)."""
        t = (a % self.q) - (b % self.q)
        return t + self.q if t < 0 else t

    # -- vectorized datapath -----------------------------------------------

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized ``a * b mod q``.

        Implements the same shift/multiply structure as :meth:`reduce`:
        with uint64 intermediates below ``2**31`` (operands taken as
        they come, the product must stay below ``q**2``), and on exact
        Python integers from there up.
        """
        if self.q >= (1 << 31):
            return self._mul_vec_exact(a, b)
        z = np.asarray(a, dtype=np.uint64) * np.asarray(b, dtype=np.uint64)
        return _reduce_lanes(z, *self._lane_constants)

    def _mul_vec_exact(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """:meth:`mul` on every lane at once, for moduli whose products
        overflow uint64: operands reduced first, object-dtype
        intermediates, ``max_corrections_seen`` maintained."""
        q, w = self.q, self.width
        z = ((np.asarray(a, dtype=np.uint64).astype(object) % q)
             * (np.asarray(b, dtype=np.uint64).astype(object) % q))
        t = z - (((z >> (w - 1)) * self.mu) >> (w + 1)) * q
        first = t >= q
        t = np.where(first, t - q, t)
        second = t >= q
        t = np.where(second, t - q, t)
        corrections = int(first.any()) + int(second.any())
        if corrections > self.max_corrections_seen:
            self.max_corrections_seen = corrections
        return t.astype(np.uint64)

    def mul_count_ops(self, a: int, b: int) -> tuple[int, dict[str, int]]:
        """Return ``a*b mod q`` plus the operation tally of the datapath.

        The tally feeds the power model: each Barrett multiply costs two
        wide multiplies (by ``mu`` and by ``q``) on top of the operand
        product, one subtraction and up to one correction.
        """
        before = self.max_corrections_seen
        result = self.mul(a, b)
        corrections = self.max_corrections_seen if self.max_corrections_seen > before else 0
        ops = {
            "wide_multiplies": 3,  # a*b, (z>>..)*mu, q_hat*q
            "subtractions": 1 + corrections,  # corrections <= 2
        }
        return result, ops


class BarrettStack:
    """The Barrett multipliers of a batch: one modulus per limb, applied
    to arrays with a leading limb axis.

    While every modulus is below ``2**31`` the limbs share the uint64
    datapath.  A constant that differs between limbs is expanded to the
    operands' shape (numpy runs a broadcast limb axis in short loops);
    one they share stays a scalar.  From ``2**31`` up each limb takes its
    own reducer's exact path.
    """

    def __init__(self, moduli) -> None:
        moduli = [int(q) for q in moduli]
        #: The moduli, one ``uint64`` word per limb.
        self.moduli = np.array(moduli, dtype=np.uint64)
        self._reducers = None
        columns = [moduli]
        if max(moduli) >= (1 << 31):
            self._reducers = [BarrettReducer(q) for q in moduli]
        else:
            columns = list(zip(*map(_lane_words, moduli)))
        self._columns = [
            np.uint64(c[0]) if c.count(c[0]) == len(c)
            else np.array(c, dtype=np.uint64) for c in columns]
        self._words: dict[tuple, tuple] = {}

    def words(self, shape: tuple) -> tuple:
        """The datapath constants (``w - 1``, ``w + 1``, ``mu``, ``q``; on
        the exact path ``q`` alone), each a scalar or shaped ``shape``."""
        words = self._words.get(shape)
        if words is None:
            limbs = (-1,) + (1,) * (len(shape) - 1)
            words = self._words[shape] = tuple(
                c if c.ndim == 0 else np.empty(shape, dtype=np.uint64)
                for c in self._columns)
            for word, c in zip(words, self._columns):
                if c.ndim:
                    word[...] = c.reshape(limbs)
        return words

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """:meth:`BarrettReducer.mul_vec` of every limb: ``a`` and ``b``
        are ``(L, ...)``, limb ``l`` reduced modulo ``moduli[l]``."""
        if self._reducers is not None:
            return np.stack([r.mul_vec(x, y)
                             for r, x, y in zip(self._reducers, a, b)])
        z = a * b
        return _reduce_lanes(z, *self.words(z.shape))
