"""Noise measurement and budget estimation.

FHE correctness is a noise race: every homomorphic operation grows the
error carried inside a ciphertext, and decryption fails once it crosses
``Q_level / 2``.  This module provides

* :func:`measure_noise` — the *exact* infinity-norm of a CKKS
  ciphertext's noise, obtained with the secret key (a debugging/research
  tool, obviously not part of the public API of a deployment);
* :func:`noise_budget_bits` — how many doubling steps remain before
  decryption failure;
* :class:`NoiseEstimator` — closed-form worst-case-ish bounds for each
  operation, validated against measurements in the test-suite.  The
  estimator uses the standard heuristic bounds (canonical-embedding
  style, sqrt(N) expansion for ring products of independent polynomials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.fhe.ckks import Ciphertext, CkksContext


def measure_noise(ctx: CkksContext, ct: Ciphertext,
                  expected: np.ndarray) -> float:
    """Exact noise infinity-norm of a CKKS ciphertext, in bits.

    ``expected`` is the plaintext slot vector the ciphertext should
    carry.  Returns ``log2 || <ct, s> - encode(expected) ||_inf``.
    """
    carried = ctx.phase(ct).centered_lift()
    ideal = np.rint(ctx.encoder.embed(expected) * ct.scale).astype(object)
    noise = np.abs(carried - ideal).max()
    return math.log2(max(int(noise), 1))


def noise_budget_bits(ctx: CkksContext, ct: Ciphertext,
                      expected: np.ndarray) -> float:
    """Bits of headroom before the noise reaches ``Q_level / 2``."""
    q_bits = sum(math.log2(q) for q in ct.parts[0].primes)
    return q_bits - 1 - measure_noise(ctx, ct, expected)


@dataclass
class NoiseEstimator:
    """Closed-form noise bounds for the CKKS evaluator.

    All bounds are in bits (log2 of the coefficient infinity-norm) and
    use sqrt-expansion heuristics for ring products, which track the
    measured values within a few bits for random inputs.
    """

    n: int
    error_std: float = 3.2
    #: Hamming-style bound on the ternary secret's 1-norm contribution.
    secret_norm: float = 1.0

    @property
    def _root_n(self) -> float:
        return math.sqrt(self.n)

    def fresh_bits(self) -> float:
        """Noise of a fresh public-key encryption:
        ``e0 + u*e + e1*s ~ e * sqrt(N) * (1 + 2*sqrt(N)/...)``."""
        bound = self.error_std * self._root_n * (1 + 2 * self.secret_norm
                                                 * self._root_n / 2)
        return math.log2(bound * 8)

    def add_bits(self, a_bits: float, b_bits: float) -> float:
        """Addition: noises add."""
        return max(a_bits, b_bits) + 1

    def multiply_bits(self, a_bits: float, b_bits: float,
                      a_scale_bits: float, b_scale_bits: float) -> float:
        """Tensor product: cross terms ``e_a * m_b`` dominate."""
        cross1 = a_bits + b_scale_bits + math.log2(self._root_n)
        cross2 = b_bits + a_scale_bits + math.log2(self._root_n)
        return max(cross1, cross2) + 1

    def keyswitch_bits(self, digits: int, digit_width_bits: float,
                       special_bits: float) -> float:
        """Digit keyswitch: ``sum_i x_i * e_i / P``."""
        per_digit = (digit_width_bits - 1 + math.log2(self.error_std * 8)
                     + math.log2(self._root_n))
        return per_digit + math.log2(max(digits, 1)) - special_bits

    def rescale_bits(self, in_bits: float, dropped_bits: float) -> float:
        """Rescale: divide noise, add rounding ~ sqrt(N)*||s||."""
        rounding = math.log2(self._root_n * 2)
        return max(in_bits - dropped_bits, rounding) + 1


def estimate_fresh(ctx: CkksContext) -> float:
    """Estimated fresh-encryption noise bits for a context."""
    est = NoiseEstimator(ctx.params.n, ctx.params.error_std)
    return est.fresh_bits()
