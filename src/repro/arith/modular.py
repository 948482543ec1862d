"""The modular inverse the scheme, RNS and automorphism layers share.

Plain Python-integer arithmetic, any modulus width: the RNS
reconstruction constants, the drop's and BGV's plaintext-modulus
corrections, the Galois maps' ``k^-1`` and Montgomery's ``-q^-1`` are
all computed here.
"""

from __future__ import annotations


def _check_modulus(q: int) -> None:
    if q <= 1:
        raise ValueError(f"modulus must be > 1, got {q}")


def mod_inverse(a: int, q: int) -> int:
    """Return the multiplicative inverse of ``a`` modulo ``q``.

    Raises :class:`ValueError` if ``a`` is not invertible.
    """
    _check_modulus(q)
    return pow(a % q, -1, q)
