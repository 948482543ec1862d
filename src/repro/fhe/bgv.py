"""BGV: exact integer homomorphic encryption on the same substrate.

The paper notes (§II-A) that BGV/BFV "can also be similarly supported
given their similar computation patterns" — the kernels are the same
element-wise modular ops, NTTs and automorphisms the unified VPU
accelerates.  This module proves that in code: keys, encryption, the
secret phase and the relin / Galois keyswitch folds are the shared RLWE
core (:mod:`repro.fhe.rlwe`); only the plaintext encoding (exact
integers modulo ``t``), the noise placement (``t * e`` instead of
CKKS's scaled reals — the core's one ``noise_modulus`` value) and the
modulus-switch bookkeeping live here.

Supported: SIMD slot packing over ``Z_t`` (``t`` prime, ``t === 1 mod
2N``), encryption, HAdd/HSub, HMult with relinearization, slot rotation
and modulus switching for noise management.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arith.modular import mod_inverse
from repro.arith.primes import is_prime
from repro.fhe.encoding import BatchEncoder
from repro.fhe.keyswitch import mod_switch_exact
from repro.fhe.params import CkksParams
from repro.fhe.polynomial import RnsPoly
from repro.fhe.rlwe import RlweCiphertext, RlweContext, tensor
from repro.ntt.negacyclic import check_host_moduli


@dataclass(frozen=True)
class BgvParams:
    """BGV parameter set: a ciphertext chain plus a plaintext modulus.

    ``plaintext_modulus`` must be a prime with ``t === 1 (mod 2n)`` so
    the plaintext ring splits into ``n`` integer slots (SIMD batching),
    and below ``2**30``: it is the modulus of the encoder's host NTT.
    """

    n: int = 1024
    levels: int = 3
    plaintext_modulus: int = 65537
    prime_bits: int = 30
    error_std: float = 3.2

    def __post_init__(self) -> None:
        t = self.plaintext_modulus
        check_host_moduli((t,))
        if not is_prime(t):
            raise ValueError(f"plaintext modulus must be prime, got {t}")
        if (t - 1) % (2 * self.n):
            raise ValueError(
                f"need t === 1 (mod 2n) for slot packing: t={t}, n={self.n}"
            )

    def ciphertext_params(self) -> CkksParams:
        """The underlying chain (reuses the CKKS parameter machinery)."""
        return CkksParams(n=self.n, levels=self.levels,
                          scale_bits=self.prime_bits - 2,
                          prime_bits=self.prime_bits,
                          error_std=self.error_std)


@dataclass
class BgvCiphertext(RlweCiphertext):
    """A BGV ciphertext.

    ``factor`` tracks the plaintext correction accumulated by modulus
    switching: dropping prime ``q_l`` multiplies the carried plaintext by
    ``q_l^{-1} (mod t)``, so decryption multiplies the decoded slots by
    ``factor`` (the product of dropped primes mod ``t``) to undo it.
    """

    factor: int = 1
    scheme = "bgv"


class BgvContext(RlweContext):
    """Keys and evaluator for BGV."""

    scheme = "bgv"

    def __init__(self, params: BgvParams, seed: int = 2025):
        self.params = params
        self.t = params.plaintext_modulus
        self.encoder = BatchEncoder(params.n, self.t)
        # Noise sits at multiples of t (``m + t*e``), keys included.
        super().__init__(params.ciphertext_params(), seed, noise_modulus=self.t)

    # -- slot packing -----------------------------------------------------

    def encode(self, values: np.ndarray) -> RnsPoly:
        """Integer slots (mod t) -> plaintext polynomial over the chain."""
        return RnsPoly.from_int_coeffs(self.encoder.encode(values),
                                       self.chain.primes)

    def decode(self, plain_coeffs: np.ndarray) -> np.ndarray:
        """Centered integer coefficients -> integer slots (mod t)."""
        return self.encoder.decode(plain_coeffs)

    # -- encryption -------------------------------------------------------------

    def encrypt(self, values: np.ndarray) -> BgvCiphertext:
        return BgvCiphertext(self._encrypt(self.encode(values)))

    def decrypt(self, ct: BgvCiphertext) -> np.ndarray:
        decoded = self.decode(self.phase(ct).centered_lift())
        return (decoded * ct.factor) % self.t

    # -- evaluator ------------------------------------------------------------

    def _operands(self, a: BgvCiphertext, b: BgvCiphertext):
        if a.factor != b.factor:
            raise ValueError(
                f"plaintext correction factors differ ({a.factor} vs "
                f"{b.factor}): operands took different mod-switch paths"
            )
        return self._match_levels(a, b)

    def add_plain(self, ct: BgvCiphertext, values: np.ndarray) -> BgvCiphertext:
        if ct.factor != 1:
            values = (np.asarray(values, dtype=object)
                      * mod_inverse(ct.factor, self.t)) % self.t
        m = self.encode(values).limbs_prefix(ct.level + 1)
        return BgvCiphertext([ct.parts[0] + m]
                             + [p.copy() for p in ct.parts[1:]], ct.factor)

    def multiply_plain(self, ct: BgvCiphertext, values: np.ndarray) -> BgvCiphertext:
        m = self.encode(values).limbs_prefix(ct.level + 1)
        return BgvCiphertext([p * m for p in ct.parts], ct.factor)

    def multiply(self, a: BgvCiphertext, b: BgvCiphertext,
                 switch_modulus: bool = True) -> BgvCiphertext:
        """HMult: tensor, relinearize, then modulus-switch to tame noise."""
        a, b = self._operands(a, b)
        out = self._relin_fold(BgvCiphertext(
            tensor(a, b), a.factor * b.factor % self.t))
        if switch_modulus and out.level > 0:
            out = self.mod_switch(out)
        return out

    def rotate(self, ct: BgvCiphertext, steps: int) -> BgvCiphertext:
        """Rotate the first-orbit slots by ``steps`` (and the second orbit
        correspondingly), via the Galois action + keyswitch."""
        return self._rotate(ct, steps)

    def mod_switch(self, ct: BgvCiphertext) -> BgvCiphertext:
        """Drop the top chain prime, scaling noise down by ~q_l while
        preserving the plaintext modulo ``t``.

        ``c' = (c - delta) / q_l`` with ``delta === c (mod q_l)`` and
        ``delta === 0 (mod t)``.
        """
        if ct.level == 0:
            raise ValueError("cannot modulus-switch below one limb")
        dropped = ct.parts[0].primes[-1]
        return BgvCiphertext(
            [mod_switch_exact(p, self.basis, self.t) for p in ct.parts],
            ct.factor * dropped % self.t)
