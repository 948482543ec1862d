"""CKKS parameter sets.

A parameter set fixes the ring degree ``N``, the RNS modulus chain
``q_0 .. q_{L-1}`` (one NTT-friendly prime of at most 30 bits per
level: every host modulus is below ``2**30``, see
:func:`~repro.ntt.negacyclic.check_host_moduli`), one special prime
``p`` for keyswitching, and the encoding scale.

These presets are sized for *functional* reproduction on a laptop, not
for cryptographic security — a production deployment would use
N >= 2^15 with 40-60-bit primes and a security analysis.  The paper's
hardware arguments are insensitive to this distinction: the kernel mix
(element-wise ops, NTTs, automorphisms) is identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.arith.primes import find_ntt_primes
from repro.ntt.negacyclic import HOST_MODULUS_LIMIT, HostModulusError


@dataclass(frozen=True)
class CkksParams:
    """A CKKS parameter set.

    Parameters
    ----------
    n:
        Ring degree (polynomial modulus ``X^n + 1``); power of two.
    levels:
        Number of RNS limbs ``L`` in the fresh-ciphertext modulus chain;
        supports ``L - 1`` rescaling multiplications.
    scale_bits:
        ``log2`` of the encoding scale Delta.
    prime_bits:
        Bit width of every chain prime and the special prime.
    error_std:
        Standard deviation of the discrete Gaussian encryption noise.
    secret_hamming_weight:
        When set, the ternary secret has exactly this many nonzero
        coefficients (the sparse-secret variant CKKS bootstrapping
        deployments use to tame EvalMod's input range).
    """

    n: int = 4096
    levels: int = 6
    scale_bits: int = 27
    prime_bits: int = 30
    error_std: float = 3.2
    secret_hamming_weight: int | None = None
    primes: tuple[int, ...] = field(init=False)
    special_prime: int = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.scale_bits >= self.prime_bits:
            raise ValueError("scale must be below the prime width")
        if 1 << self.prime_bits > HOST_MODULUS_LIMIT:
            raise HostModulusError(
                f"{self.prime_bits}-bit primes reach the host limit 2**30")
        if (self.secret_hamming_weight is not None
                and not 0 < self.secret_hamming_weight <= self.n):
            raise ValueError(
                f"secret hamming weight {self.secret_hamming_weight} "
                f"out of range (0, {self.n}]"
            )
        found = find_ntt_primes(2 * self.n, self.prime_bits, self.levels + 1)
        object.__setattr__(self, "primes", tuple(found[:self.levels]))
        object.__setattr__(self, "special_prime", found[self.levels])

    @property
    def slots(self) -> int:
        """Number of complex plaintext slots: N/2."""
        return self.n // 2

    @property
    def scale(self) -> float:
        return float(1 << self.scale_bits)

    def modulus_at_level(self, level: int) -> int:
        """The composite modulus ``Q_level = q_0 * ... * q_level``."""
        if not 0 <= level < self.levels:
            raise ValueError(f"level {level} out of range [0, {self.levels})")
        q = 1
        for prime in self.primes[:level + 1]:
            q *= prime
        return q

    @property
    def top_level(self) -> int:
        return self.levels - 1


@lru_cache(maxsize=8)
def toy_params() -> CkksParams:
    """Tiny ring for exhaustive tests (N=256, 3 levels)."""
    return CkksParams(n=256, levels=3, scale_bits=26, prime_bits=28)


@lru_cache(maxsize=8)
def small_params() -> CkksParams:
    """Small ring for integration tests (N=1024, 4 levels)."""
    return CkksParams(n=1024, levels=4, scale_bits=26, prime_bits=29)


@lru_cache(maxsize=8)
def default_params() -> CkksParams:
    """The documentation default (N=4096, 6 levels)."""
    return CkksParams()
