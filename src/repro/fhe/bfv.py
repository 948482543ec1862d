"""BFV: scale-invariant exact integer FHE — the third §II-A scheme.

Where BGV carries its plaintext next to the noise (``m + t*e``) and
manages scale through modulus switching, BFV embeds the plaintext at the
*top* of the modulus (``Delta*m`` with ``Delta = floor(Q/t)``) and
divides by ``Q/t`` after every multiplication.  Same ring, same NTT and
automorphism kernels, same keys and digit keyswitch (the shared RLWE
core, :mod:`repro.fhe.rlwe`) — one more datapoint for the paper's claim
that the unified VPU serves every mainstream scheme.

Scope note: homomorphic multiplication's tensor step must be computed
over the integers before the ``t/Q`` rounding, which RNS-optimized BFV
implementations (HPS/BEHZ) do with auxiliary-basis extensions.  This
module instead lifts to exact big-integer coefficient arithmetic — the
golden-model formulation, quadratic in ``N`` — which keeps the scheme
bit-exact and the code auditable at the ring sizes the test-suite uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fhe.bgv import BgvParams
from repro.fhe.encoding import BatchEncoder
from repro.fhe.polynomial import RnsPoly
from repro.fhe.rlwe import RlweCiphertext, RlweContext


@dataclass
class BfvCiphertext(RlweCiphertext):
    """A BFV ciphertext (no auxiliary bookkeeping needed: scale
    invariance is the scheme's selling point)."""

    scheme = "bfv"


class BfvContext(RlweContext):
    """Keys and evaluator for BFV (single-level modulus: the chain's
    full product; BFV needs no level ladder)."""

    scheme = "bfv"

    def __init__(self, params: BgvParams, seed: int = 2025):
        self.params = params
        self.t = params.plaintext_modulus
        self.encoder = BatchEncoder(params.n, self.t)
        super().__init__(params.ciphertext_params(), seed)
        self.big_q = self.basis.big_q
        self.delta = self.big_q // self.t

    def _plain_poly(self, values: np.ndarray, scale: int = 1) -> RnsPoly:
        """Encoded slots as a chain polynomial, times ``scale``."""
        coeffs = self.encoder.encode(values).astype(object) * scale
        return RnsPoly.from_int_coeffs(coeffs, self.chain.primes)

    def _scale_round(self, coeffs: np.ndarray) -> np.ndarray:
        """``round(t * x / Q)`` coefficient-wise, over the integers."""
        return np.array(
            [(2 * self.t * int(v) + self.big_q) // (2 * self.big_q)
             for v in coeffs], dtype=object)

    # -- encryption -----------------------------------------------------------

    def encrypt(self, values: np.ndarray) -> BfvCiphertext:
        return BfvCiphertext(self._encrypt(self._plain_poly(values, self.delta)))

    def decrypt(self, ct: BfvCiphertext) -> np.ndarray:
        # m = round(t * carried / Q) mod t.
        return self.encoder.decode(
            self._scale_round(self.phase(ct).centered_lift()))

    # -- evaluator ---------------------------------------------------------------

    def add_plain(self, ct: BfvCiphertext, values: np.ndarray) -> BfvCiphertext:
        m_poly = self._plain_poly(values, self.delta)
        return BfvCiphertext([ct.parts[0] + m_poly]
                             + [p.copy() for p in ct.parts[1:]])

    def multiply_plain(self, ct: BfvCiphertext,
                       values: np.ndarray) -> BfvCiphertext:
        # Plaintext multiplicand is NOT Delta-scaled (the ciphertext
        # already carries one Delta).
        m_poly = self._plain_poly(values)
        return BfvCiphertext([p * m_poly for p in ct.parts])

    def multiply(self, a: BfvCiphertext, b: BfvCiphertext) -> BfvCiphertext:
        """HMult: integer tensor, ``t/Q`` rounding, relinearization."""
        if a.size != 2 or b.size != 2:
            raise ValueError("multiply expects 2-part ciphertexts")
        a0, a1 = (p.centered_lift() for p in a.parts)
        b0, b1 = (p.centered_lift() for p in b.parts)

        def negacyclic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            n = self.params.n
            out = np.zeros(n, dtype=object)
            for i in range(n):
                xi = int(x[i])
                if xi == 0:
                    continue
                for j in range(n):
                    k = i + j
                    v = xi * int(y[j])
                    if k < n:
                        out[k] += v
                    else:
                        out[k - n] -= v
            return out

        lifted = [negacyclic(a0, b0),
                  negacyclic(a0, b1) + negacyclic(a1, b0),
                  negacyclic(a1, b1)]
        return self._relin_fold(BfvCiphertext(
            [RnsPoly.from_int_coeffs(self._scale_round(d), self.chain.primes)
             for d in lifted]))
