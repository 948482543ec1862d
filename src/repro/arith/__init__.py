"""Modular-arithmetic substrate.

This package provides the arithmetic primitives that everything above it is
built on:

* :mod:`repro.arith.modular` — the modular inverse the scheme, RNS and
  automorphism layers share.
* :mod:`repro.arith.barrett` — a bit-accurate model of the Barrett-reduction
  modular multiplier used in each VPU lane (paper §III-A).
* :mod:`repro.arith.montgomery` — a Montgomery multiplier used as a
  comparison point (the paper argues Barrett suits FHE base conversion
  better).
* :mod:`repro.arith.primes` — Miller–Rabin primality testing, NTT-friendly
  prime search and primitive-root finding.
"""

from repro.arith.barrett import BarrettReducer
from repro.arith.modular import mod_inverse
from repro.arith.montgomery import MontgomeryReducer
from repro.arith.primes import (
    find_ntt_prime,
    find_ntt_primes,
    find_primitive_root,
    is_prime,
    nth_root_of_unity,
)

__all__ = [
    "BarrettReducer",
    "MontgomeryReducer",
    "find_ntt_prime",
    "find_ntt_primes",
    "find_primitive_root",
    "is_prime",
    "mod_inverse",
    "nth_root_of_unity",
]
