"""Bit-reversal utilities.

The decimation-in-frequency NTT emits results in bit-reversed index order
and the decimation-in-time inverse consumes that order, which is exactly
why the paper's VPU provides both butterfly types: chaining DIF-forward
with DIT-inverse removes any explicit bit-reverse pass (paper §III-A).
These helpers exist for the software layers that *do* want natural order
(e.g. the CKKS evaluation representation).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def bit_reverse(value: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``value``."""
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


@lru_cache(maxsize=None)
def bit_reverse_indices(n: int) -> np.ndarray:
    """Return the length-``n`` bit-reversal permutation as an index array.

    ``n`` must be a power of two.  Cached per ``n``, so the array is
    read-only.
    """
    if n <= 0 or n & (n - 1):
        raise ValueError(f"n must be a positive power of two, got {n}")
    bits = n.bit_length() - 1
    i = np.arange(n, dtype=np.int64)
    indices = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        indices |= ((i >> b) & 1) << (bits - 1 - b)
    indices.setflags(write=False)
    return indices


def bit_reverse_permute(x: np.ndarray) -> np.ndarray:
    """Return a copy of ``x`` with elements in bit-reversed index order."""
    x = np.asarray(x)
    return x[bit_reverse_indices(len(x))]


def rotate_bits_right(value: int, amount: int, bits: int) -> int:
    """Rotate the low ``bits`` bits of ``value`` right by ``amount``.

    Used to track where constant-geometry stages place each logical
    element (Pease's theorem: the storage map after ``s`` CG-DIF stages is
    ``ror^s``).
    """
    amount %= bits
    mask = (1 << bits) - 1
    value &= mask
    return ((value >> amount) | (value << (bits - amount))) & mask


def rotate_bits_left(value: int, amount: int, bits: int) -> int:
    """Rotate the low ``bits`` bits of ``value`` left by ``amount``."""
    return rotate_bits_right(value, bits - (amount % bits), bits)
