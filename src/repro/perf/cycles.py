"""Analytic cycle accounting for VPU operations (paper §V-C).

The model counts *vector cycles* — each cycle the VPU either retires one
fused NTT stage (network + butterflies, all lanes busy), one element-wise
pass, or one network-only pass:

* **compute**: every dimension's fused CG stages — ``(N/m) * log2(N)``
  cycles in total, which is exactly the ideal all-lanes-busy cycle count
  (``N/2 * log2 N`` butterflies over ``m/2`` butterfly pairs).
* **transpose**: the two-pass diagonal transpose moves every element
  through the network twice per dimension boundary —
  ``2 * (N/m) * (d-1)`` network-only cycles.  These cannot hide under
  compute because the fused stages already occupy the network; the
  element-wise twiddle passes *do* hide under them (multipliers are idle
  during transposes, and row-level pipelining overlaps the two).
* **drain**: each of the ``2d - 1`` phases (``d`` dimension sweeps,
  ``d-1`` transposes) refills the pipeline once; its depth is the
  network's physical stage count, ``log2(m) + 2`` (``log2(m) + 1`` at
  m = 4, where the two CG stages merge).

The compute and transpose terms are validated instruction-for-
instruction against the executable compiler
(:mod:`repro.mapping.ntt`) in the test-suite; the drain term models the
pipeline behaviour a one-instruction-per-cycle executor cannot see.

Automorphisms take ``N/m`` single-traversal passes with every lane
carrying a useful element every cycle — 100% throughput, the Table III
right-hand column, the compiled automorphism's pass count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.network import InterLaneNetwork
from repro.ntt.decomposition import choose_dimensions


@dataclass(frozen=True)
class CycleReport:
    """Cycle breakdown of one operation on the VPU."""

    n: int
    m: int
    compute_cycles: int
    network_only_cycles: int
    drain_cycles: int
    ideal_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.network_only_cycles + self.drain_cycles

    @property
    def utilization(self) -> float:
        """Throughput utilization: ideal cycles over actual cycles."""
        return self.ideal_cycles / self.total_cycles


def pipeline_depth(m: int) -> int:
    """Depth of the lane/network pipeline: the network's physical stage
    count."""
    return InterLaneNetwork(m).stage_count


def ntt_cycle_model(n: int, m: int = 64) -> CycleReport:
    """Cycle model of a length-``n`` NTT on an ``m``-lane VPU."""
    dims = choose_dimensions(n, m)
    d = len(dims)
    rows = max(n // m, 1)
    log_n = n.bit_length() - 1
    compute = rows * log_n
    transpose = 2 * rows * (d - 1)
    drain = pipeline_depth(m) * (2 * d - 1)
    return CycleReport(
        n=n, m=m,
        compute_cycles=compute,
        network_only_cycles=transpose,
        drain_cycles=drain,
        ideal_cycles=compute,
    )


def automorphism_cycle_model(n: int, m: int = 64) -> CycleReport:
    """Cycle model of a length-``n`` automorphism: one network traversal
    per element, full throughput (no idle or repeated passes)."""
    rows = max(n // m, 1)
    return CycleReport(
        n=n, m=m,
        compute_cycles=rows,
        network_only_cycles=0,
        drain_cycles=0,
        ideal_cycles=rows,
    )


def baseline_automorphism_passes(n: int, m: int, design: str) -> int:
    """Network/buffer passes per length-``n`` automorphism for the
    baselines (the pass-count ablation).

    * ``ours`` / ``bts`` / ``ark`` / ``sharp``: one pass per column,
      :func:`automorphism_cycle_model`'s cycles.
    * ``f1``: uniform shifts only — one masked pass per distinct shift
      distance in each column's affine map, up to m/2 per column.
    """
    from repro.automorphism.decomposition import column_decompose
    from repro.automorphism.mapping import AffinePermutation
    from repro.baselines.f1 import affine_via_uniform_shifts

    if design in ("ours", "bts", "ark", "sharp"):
        return automorphism_cycle_model(n, m).total_cycles
    if design != "f1":
        raise ValueError(f"unknown design {design!r}")
    perm = AffinePermutation(n, 5 % n if (5 % n) % 2 else 3, 0)
    _, row_maps = column_decompose(perm, rows=m)
    return sum(len(affine_via_uniform_shifts(rm)) for rm in row_maps)
