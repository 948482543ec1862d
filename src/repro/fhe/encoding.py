"""Slot encoders: CKKS canonical embedding and exact integer batching.

A CKKS plaintext vector of ``N/2`` complex slots embeds into a real
polynomial through the canonical embedding: slot ``t`` is the value of
the polynomial at the primitive ``2N``-th root ``zeta^(5^t)`` (and its
conjugate at ``zeta^(-5^t)``), scaled by Delta and rounded.

The **power-of-five slot ordering** is what makes homomorphic rotation
work: the Galois action ``X -> X^(5^r)`` sends evaluation point
``zeta^(5^t)`` to ``zeta^(5^(t+r))``, i.e. it *cyclically rotates* the
slot vector by ``r`` — the paper's §II-C, where applying
``sigma_{Phi,r}`` rotates the plaintexts.  With ascending odd-exponent
ordering the same action would scramble the slots.

Transforms are O(N log N): one FFT plus an index permutation.

:class:`BatchEncoder` is the exact-integer counterpart BGV and BFV
share: the same orbit ordering (:func:`slot_order`) over the
evaluation points of ``Z_t[X]/(X^N + 1)``, with a plain-modulus NTT in
place of the FFT.
"""

from __future__ import annotations

import numpy as np

from repro.fhe.params import CkksParams
from repro.fhe.polynomial import RnsPoly
from repro.ntt.negacyclic import NegacyclicNtt


def slot_order(n: int) -> np.ndarray:
    """Natural evaluation index of every slot, in power-of-5 order —
    the ordering that turns Galois maps into slot rotations.

    The ``n`` evaluation points split into two size-``n/2`` orbits
    under multiplication by 5; slots ``0..n/2-1`` walk the ``+5^u``
    orbit (index ``j`` with ``2j+1 = 5^u mod 2n``) and slots
    ``n/2..n-1`` the conjugate ``-5^u`` orbit.
    """
    order = np.empty(n, dtype=np.int64)
    exponent = 1
    for u in range(n // 2):
        order[u] = (exponent - 1) // 2
        order[u + n // 2] = (2 * n - exponent - 1) // 2
        exponent = exponent * 5 % (2 * n)
    return order


class BatchEncoder:
    """SIMD packing of ``n`` integer slots modulo a prime ``t``
    (``t === 1 mod 2n``) — the plaintext side of BGV and BFV."""

    def __init__(self, n: int, t: int):
        self.n = n
        self.t = t
        self.slot_order = slot_order(n)
        self._ntt = NegacyclicNtt(n, t)

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Integer slots (mod t) -> centered plaintext coefficients."""
        values = np.asarray(values)
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} slots, got {len(values)}")
        evals = np.zeros(self.n, dtype=np.uint64)
        evals[self.slot_order] = values.astype(object) % self.t
        coeffs = self._ntt.inverse(evals).astype(np.int64)
        return np.where(coeffs > self.t // 2, coeffs - self.t, coeffs)

    def decode(self, coeffs: np.ndarray) -> np.ndarray:
        """Integer coefficients (any representative) -> slots in [0, t)."""
        evals = self._ntt.forward(np.asarray(coeffs, dtype=object) % self.t)
        # Residues mod t < 2**30.
        return evals[self.slot_order].astype(np.int64)


class CkksEncoder:
    """Encoder/decoder bound to one parameter set."""

    def __init__(self, params: CkksParams):
        self.params = params
        n = params.n
        self.n = n
        self.slots = params.slots
        # Slot t sits in DFT bin j with 2j+1 = 5^t mod 2N; its conjugate
        # in the bin for -5^t.
        order = slot_order(n)
        self._slot_bin, self._conj_bin = order[:self.slots], order[self.slots:]
        #: Twist factors e^{i pi k / N} linking the odd-root transform to
        #: the standard DFT.
        k = np.arange(n)
        self._twist = np.exp(1j * np.pi * k / n)

    # -- complex vector <-> real coefficient vector -------------------------

    def embed(self, slots_vec: np.ndarray) -> np.ndarray:
        """Slot values -> real (float) polynomial coefficients, unscaled."""
        z = np.asarray(slots_vec, dtype=np.complex128)
        if len(z) != self.slots:
            raise ValueError(f"expected {self.slots} slots, got {len(z)}")
        spectrum = np.zeros(self.n, dtype=np.complex128)
        spectrum[self._slot_bin] = z
        spectrum[self._conj_bin] = np.conj(z)
        # c_k = (1/N) * e^{-i pi k/N} * sum_j v_j e^{-2 pi i jk/N}
        coeffs = np.fft.fft(spectrum) * np.conj(self._twist) / self.n
        return coeffs.real

    def project(self, coeffs: np.ndarray) -> np.ndarray:
        """Real polynomial coefficients -> slot values, unscaled."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")
        spectrum = np.fft.ifft(coeffs * self._twist) * self.n
        return spectrum[self._slot_bin]

    # -- plaintext encode/decode ---------------------------------------------

    def encode(self, slots_vec: np.ndarray, level: int | None = None,
               scale: float | None = None) -> tuple[RnsPoly, float]:
        """Encode slots into a double-CRT plaintext polynomial.

        Returns ``(poly, scale)``; the poly is at the given level (default
        top) in the evaluation domain.
        """
        level = self.params.top_level if level is None else level
        scale = self.params.scale if scale is None else scale
        rounded = np.rint(self.embed(slots_vec) * scale)
        # Every coefficient inside [-2^63, 2^63) goes to int64 as it is
        # (exact: the values are integral); only wider ones, or a NaN,
        # take Python objects.
        if -2.0 ** 63 <= rounded.min() and rounded.max() < 2.0 ** 63:
            rounded = rounded.astype(np.int64)
        else:
            rounded = rounded.astype(object)
        primes = self.params.primes[:level + 1]
        return RnsPoly.from_int_coeffs(rounded, primes), scale

    def decode(self, poly: RnsPoly, scale: float) -> np.ndarray:
        """Decode a plaintext polynomial back to slot values.

        An int64 lift converts to float64 with the rounding of the
        Python-int one, so it skips the object dtype."""
        return self.project(poly.centered_coeffs().astype(np.float64)) / scale
