"""Functional multi-VPU execution (paper §IV: "It is easy to extend the
mapping to multiple VPUs for parallel execution").

Each RNS limb's NTT is independent.  :class:`ParallelVpuPool` runs a
batch of plain cyclic NTTs on the ``num_vpus`` units of one
:class:`~repro.fhe.backend.VpuBackend`, the executor every VPU kernel
runs on, and reports the makespan the scheduler predicts.  Checking,
replaying and degrading VPU work is
:class:`~repro.fhe.backend.IntegrityBackend`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.fhe.backend.vpu_backend import VpuBackend


@dataclass
class ParallelRunReport:
    """Outcome of one batched run."""

    instances: int
    per_vpu_cycles: tuple[int, ...]

    @property
    def makespan_cycles(self) -> int:
        return max(self.per_vpu_cycles)

    @property
    def total_cycles(self) -> int:
        return sum(self.per_vpu_cycles)

    @property
    def speedup(self) -> float:
        """Parallel speedup over a single VPU running everything."""
        return self.total_cycles / self.makespan_cycles if self.makespan_cycles else 1.0

    @property
    def utilization(self) -> float:
        """Fraction of the pool's cycle budget (``num_vpus *
        makespan``) spent doing work — ``speedup / num_vpus``."""
        budget = self.makespan_cycles * len(self.per_vpu_cycles)
        return self.total_cycles / budget if budget else 1.0


class ParallelVpuPool:
    """A pool of identical VPUs executing independent NTT instances."""

    def __init__(self, num_vpus: int, m: int, q: int):
        self.num_vpus = num_vpus
        self.q = q
        self.backend = VpuBackend(m, units=num_vpus)

    def run_ntt_batch(self, limbs: np.ndarray, n: int) -> tuple[np.ndarray, ParallelRunReport]:
        """Transform a batch of length-``n`` vectors (one per RNS limb),
        round-robin over the units: natural-order NTT results
        (batch-major) and the run report.  Every unit runs the one
        compiled program; only the data differs."""
        limbs = np.asarray(limbs, dtype=np.uint64)
        if limbs.ndim != 2 or limbs.shape[1] != n:
            raise ValueError(f"expected (batch, {n}) input, got {limbs.shape}")
        units = self.backend.units
        with obs.span("pool.run_ntt_batch", cat="pool", instances=len(limbs),
                      n=n, num_vpus=self.num_vpus) as span:
            before = [unit.stats.cycles for unit in units]
            outputs = self.backend.cyclic_ntt_batch(limbs, (self.q,) * len(limbs))
            report = ParallelRunReport(len(limbs), tuple(
                unit.stats.cycles - b for unit, b in zip(units, before)))
            obs.gauge("pool.makespan_cycles", report.makespan_cycles)
            obs.gauge("pool.total_cycles", report.total_cycles)
            obs.gauge("pool.utilization", round(report.utilization, 6))
            obs.count("pool.instances", report.instances)
            span.set(makespan_cycles=report.makespan_cycles,
                     total_cycles=report.total_cycles)
        return outputs, report
