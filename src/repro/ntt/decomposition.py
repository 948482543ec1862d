"""Multi-dimensional (Bailey four-step) NTT decomposition: the split.

An NTT of length ``N`` decomposes into ``ceil(log N / log m)`` dimensions
of length at most ``m`` (the hardware width), processed one dimension at a
time with an element-wise twiddle multiplication and a data transposition
between dimensions (paper §II-B).  This module picks the dimensions; the
VPU compiler in :mod:`repro.mapping.ntt` emits the schedule over them as
lane-level programs, and the cycle, traffic and resource models
(:mod:`repro.perf.cycles`, :mod:`repro.accel.dram`,
:mod:`repro.analysis.resources`) count it.
"""

from __future__ import annotations


def choose_dimensions(n: int, m: int) -> list[int]:
    """Split a length-``n`` NTT into dimensions for ``m``-lane hardware.

    Returns a list of power-of-two dimension lengths, each ``<= m``, whose
    product is ``n``.  All dimensions are ``m`` except possibly the last
    (paper §IV-A: "If the last dimension size is smaller than m ... the CG
    network can be divided into multiple independent groups").
    """
    if n <= 0 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    if m <= 1 or m & (m - 1):
        raise ValueError(f"m must be a power of two > 1, got {m}")
    dims = []
    remaining = n
    while remaining > m:
        dims.append(m)
        remaining //= m
    dims.append(remaining)
    return dims
