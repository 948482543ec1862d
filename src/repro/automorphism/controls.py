"""Shift-network control-signal generation (paper §III-B and §IV-B).

The shift network has ``log2 m`` stages of cyclic-shift distance
``m/2, m/4, ..., 1``.  A stage of distance ``d = 2^b`` consists of ``m``
2-to-1 MUXes, but its shift graph decomposes into ``d`` disjoint cycles
(the lanes congruent mod ``d``), and bijectivity forces every MUX in a
cycle to switch together — so the stage has exactly ``d`` independent
control signals and the whole network ``m - 1`` bits, as the paper notes.

**Single-pass theorem** (the paper's contribution): for an affine
permutation ``dest(i) = k*i + s (mod m)`` with odd ``k``, the
per-element shift distance ``D(i) = (dest(i) - i) mod m`` satisfies two
properties that make one network traversal sufficient:

* *co-control consistency*: bit ``b`` of ``D(i)`` depends only on
  ``i mod 2^b`` (because ``k - 1`` is even), so all elements sharing a
  stage cycle agree on whether to shift;
* *no collisions*: after the stages of distance ``>= 2^b`` the partial
  positions ``i + (D(i) >> b << b)`` are pairwise distinct (their
  difference is ``(i1 - i2) * k mod m`` with ``k`` a unit).

Stages are traversed largest distance first, matching Fig. 2.  A
:class:`ShiftControls` word only names the group bits; the routing it
causes is :class:`repro.core.network.InterLaneNetwork`'s mux model, the
one the VPU executes, and ``tests/test_automorphism_controls.py`` holds
the theorem there: every word of :func:`control_table` for m = 4 … 256,
and every affine map with an offset, crosses the network in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class RoutingConflictError(ValueError):
    """A distance map cannot traverse the shift network in one pass."""


@dataclass(frozen=True)
class ShiftControls:
    """Control bits for one traversal of the shift network.

    ``group_bits[b]`` holds the ``2^b`` independent signals of the stage
    with shift distance ``2^b``; the network applies stages in
    *decreasing* distance order ``m/2, ..., 2, 1`` (``b`` from
    ``log2(m)-1`` down to 0), matching Fig. 2.
    ``group_bits[b][a] == 1`` means the cycle of lanes ``=== a (mod 2^b)``
    shifts by ``2^b``.
    """

    m: int
    group_bits: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.m <= 1 or self.m & (self.m - 1):
            raise ValueError(f"m must be a power of two > 1, got {self.m}")
        log_m = self.m.bit_length() - 1
        if len(self.group_bits) != log_m:
            raise ValueError(
                f"expected {log_m} stages of group bits, got {len(self.group_bits)}"
            )
        for b, bits in enumerate(self.group_bits):
            if len(bits) != 1 << b:
                raise ValueError(
                    f"stage distance 2^{b} needs {1 << b} signals, got {len(bits)}"
                )

    @property
    def total_bits(self) -> int:
        """Number of control bits: always ``m - 1``."""
        return sum(len(bits) for bits in self.group_bits)


def route_distance_map(m: int, distances: np.ndarray) -> ShiftControls:
    """Controls for an arbitrary per-element distance map (the router).

    ``distances[i]`` is the cyclic distance element ``i`` must travel.
    Raises :class:`RoutingConflictError` if the map violates co-control
    consistency or collides at an intermediate stage — the signal the
    mapping layer uses to fall back to a CG-assisted pass (Fig. 3b).
    """
    distances = np.asarray(distances, dtype=np.int64) % m
    if len(distances) != m:
        raise ValueError(f"expected {m} distances, got {len(distances)}")
    log_m = m.bit_length() - 1
    group_bits: list[tuple[int, ...]] = [()] * log_m
    positions = np.arange(m, dtype=np.int64)
    indices = np.arange(m, dtype=np.int64)
    for b in reversed(range(log_m)):
        d = 1 << b
        # Element i currently sits at lane positions[i]; it shifts at this
        # stage iff bit b of its remaining distance is set.
        wants = (distances >> b) & 1
        # Co-control: every element in a lane-cycle (positions mod d equal)
        # must agree.
        bits = np.full(d, -1, dtype=np.int64)
        for i in indices:
            group = positions[i] % d
            if bits[group] == -1:
                bits[group] = wants[i]
            elif bits[group] != wants[i]:
                raise RoutingConflictError(
                    f"stage distance {d}: cycle {group} elements disagree"
                )
        bits[bits == -1] = 0
        group_bits[b] = tuple(int(v) for v in bits)
        positions = (positions + wants * d) % m
        distances = distances - wants * d
        if len(np.unique(positions)) != m:
            raise RoutingConflictError(
                f"collision after stage distance {d}"
            )
    return ShiftControls(m, tuple(group_bits))


def affine_controls(m: int, multiplier: int, offset: int = 0) -> ShiftControls:
    """Controls for ``dest(i) = multiplier*i + offset mod m`` (closed form).

    Bit ``b`` of the distance of any element in stage cycle ``a`` is
    ``((a*(k-1) + s) mod 2^(b+1)) >> b`` — no search needed; this is what
    the paper pre-generates into on-chip SRAM.
    """
    if multiplier % 2 == 0:
        raise ValueError(f"multiplier must be odd, got {multiplier}")
    log_m = m.bit_length() - 1
    if m <= 1 or m & (m - 1):
        raise ValueError(f"m must be a power of two > 1, got {m}")
    k = multiplier % m
    s = offset % m
    group_bits = []
    for b in range(log_m):
        mask = (1 << (b + 1)) - 1
        bits = tuple(
            ((a * (k - 1) + s) & mask) >> b for a in range(1 << b)
        )
        group_bits.append(bits)
    return ShiftControls(m, tuple(group_bits))


def uniform_shift_controls(m: int, amount: int) -> ShiftControls:
    """Controls for a plain cyclic shift by ``amount`` (multiplier 1)."""
    return affine_controls(m, 1, amount)


@lru_cache(maxsize=8)
def control_table(m: int) -> dict[int, ShiftControls]:
    """Pre-generated control table for all distinct automorphisms.

    With ``m`` lanes there are ``m/2`` distinct automorphism multipliers
    (the odd residues); the paper stores their ``m - 1``-bit control words
    in on-chip SRAM (§IV-B) so nothing is computed at runtime.
    """
    return {k: affine_controls(m, k) for k in range(1, m, 2)}


def control_table_size_bits(m: int) -> int:
    """SRAM footprint of the table: ``(m/2) * (m-1)`` bits (paper: ~2 kb
    at m = 64)."""
    return (m // 2) * (m - 1)
