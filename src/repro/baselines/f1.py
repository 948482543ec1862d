"""F1's permutation approach: quadrant-swap transpose + cyclic shifts.

F1 performs NTT dimension transposes in hierarchical quadrant-swap SRAM
buffers, and automorphisms with a plain cyclic-shift network used "in
conjunction with" the transpose unit.  Because a *uniform* cyclic shift
cannot realize the per-element distances of an automorphism, F1 needs
multiple masked passes — :func:`affine_via_uniform_shifts` constructs
that schedule, and its pass count is what the comparison benchmarks
charge F1 with.
"""

from __future__ import annotations

import numpy as np

from repro.automorphism.mapping import AffinePermutation
from repro.core.network import InterLaneNetwork
from repro.hwmodel import technology as tech
from repro.hwmodel.components import CostReport, mux_stage_cost
from repro.hwmodel.network_cost import multistage_network_cost
from repro.hwmodel.sram import SramMacro


def quadrant_swap_transpose(matrix: np.ndarray, _level: int = 0) -> np.ndarray:
    """Transpose a ``2^k x 2^k`` matrix by recursive quadrant swaps.

    The algorithm F1's SRAM buffers implement: swap the off-diagonal
    quadrants, then recurse into each quadrant.  ``log2(n)`` levels of
    block swaps in place of a wire-level permutation network.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    if matrix.shape != (n, n) or (n & (n - 1)):
        raise ValueError(f"need a square power-of-two matrix, got {matrix.shape}")
    if n == 1:
        return matrix.copy()
    h = n // 2
    out = np.empty_like(matrix)
    out[:h, :h] = quadrant_swap_transpose(matrix[:h, :h])
    out[h:, h:] = quadrant_swap_transpose(matrix[h:, h:])
    out[:h, h:] = quadrant_swap_transpose(matrix[h:, :h])  # swapped...
    out[h:, :h] = quadrant_swap_transpose(matrix[:h, h:])  # ...quadrants
    return out


def affine_via_uniform_shifts(
    perm: AffinePermutation,
) -> list[tuple[int, np.ndarray]]:
    """Realize an affine permutation with only *uniform* cyclic shifts.

    Returns a schedule of ``(distance, write_mask)`` passes: pass ``p``
    cyclically shifts the whole vector by ``distance`` and commits only
    the lanes where ``write_mask`` is set.  A plain shift network needs
    one pass per distinct element distance — up to ``n/2`` for an
    automorphism — versus the unified network's single pass.
    """
    distances = perm.shift_distances()
    schedule = []
    for d in sorted(set(int(v) for v in distances)):
        mask = distances == d
        schedule.append((d, mask))
    return schedule


def apply_shift_schedule(
    x: np.ndarray, schedule: list[tuple[int, np.ndarray]]
) -> np.ndarray:
    """Execute an :func:`affine_via_uniform_shifts` schedule."""
    x = np.asarray(x)
    out = np.empty_like(x)
    for distance, mask in schedule:
        shifted = np.roll(x, distance)
        shifted_mask = np.roll(mask, distance)
        out[shifted_mask] = shifted[shifted_mask]
    return out


class F1Permuter:
    """Behavioral model of F1's transpose + shift permutation unit."""

    def __init__(self, m: int):
        if m < 2 or m & (m - 1):
            raise ValueError(f"m must be a power of two >= 2, got {m}")
        self.m = m
        self.passes_executed = 0

    def transpose(self, tile: np.ndarray) -> np.ndarray:
        """Transpose an m x m tile through the quadrant-swap buffers."""
        self.passes_executed += 1
        return quadrant_swap_transpose(tile)

    def automorphism(self, x: np.ndarray, perm: AffinePermutation) -> np.ndarray:
        """Apply an automorphism with masked uniform-shift passes."""
        schedule = affine_via_uniform_shifts(perm)
        self.passes_executed += len(schedule)
        return apply_shift_schedule(x, schedule)


def f1_network_cost(m: int, bits: int = tech.WORD_BITS) -> CostReport:
    """F1's permutation hardware on an ``m``-lane VPU.

    Quadrant-swap buffers sized for an ``m x m`` word tile with
    simultaneous read+write streaming (dual port, full duty), two levels
    of swap muxes on the ``m``-word datapath, plus the cyclic-shift
    network (our network's ``log2 m`` shift stages, no CG stages).
    """
    shifts = len(InterLaneNetwork(m).shift_stages)
    buffers = SramMacro(
        bits=m * m * bits,
        io_bits=m * bits,
        ports=2,
        duty=1.0,
        label="quadrant-swap transpose buffers",
    ).cost()
    swap_muxes = mux_stage_cost(m, bits) * 2
    shift_net = multistage_network_cost(m, shifts, bits)
    total = buffers + swap_muxes + shift_net
    return CostReport(total.area_um2, total.power_mw, f"F1 network (m={m})")
