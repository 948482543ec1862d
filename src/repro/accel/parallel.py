"""Functional multi-VPU execution (paper §IV: "It is easy to extend the
mapping to multiple VPUs for parallel execution").

FHE workloads carry embarrassing parallelism across RNS limbs and
ciphertext polynomials: each limb's NTT/automorphism is independent.
:class:`ParallelVpuPool` owns several behavioral VPU instances and
executes a batch of kernel instances across them, checking results stay
bit-identical to single-VPU execution and reporting the makespan the
scheduler predicts.

The pool doubles as the integrity layer's multi-unit story: under a
non-``OFF`` :class:`~repro.fault.policy.IntegrityPolicy` every limb's
result is ABFT-verified per row, failing limbs replay on a *different*
VPU (the redundant unit), persistently failing VPUs are quarantined out
of the round-robin, and under ``DETECT_DEGRADE`` a limb whose replays
are exhausted falls back to the numpy golden transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core import VectorProcessingUnit
from repro.core.isa import Program
from repro.fault.integrity import AbftChecker
from repro.fault.policy import IntegrityPolicy
from repro.mapping import (
    compile_ntt,
    pack_for_ntt,
    required_registers,
    unpack_ntt_result,
)


class PoolExhaustedError(RuntimeError):
    """Every VPU in the pool is retired — no healthy unit can accept
    work.  Raised by :meth:`ParallelVpuPool.retire` instead of letting a
    capacity-zero pool deadlock its callers; the serving layer maps it
    to a typed rejection."""


@dataclass
class ParallelRunReport:
    """Outcome of one batched run."""

    instances: int
    per_vpu_cycles: tuple[int, ...]
    detections: int = 0
    retries: int = 0
    quarantined_vpus: tuple[int, ...] = ()
    degraded: int = 0

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
        makespan``) spent doing work — ``speedup / num_vpus``.  Cycles
        burned on a later-retired VPU still count as spent work: the
        unit ran them before it was quarantined."""
        budget = self.makespan_cycles * len(self.per_vpu_cycles)
        return self.total_cycles / budget if budget else 1.0


class ParallelVpuPool:
    """A pool of identical VPUs executing independent kernel instances."""

    def __init__(self, num_vpus: int, m: int, q: int, memory_rows: int = 512,
                 policy: IntegrityPolicy | str = IntegrityPolicy.OFF,
                 integrity_seed: int = 0, max_retries: int = 2):
        if num_vpus < 1:
            raise ValueError("need at least one VPU")
        self.num_vpus = num_vpus
        self.m = m
        self.q = q
        self.policy = IntegrityPolicy.parse(policy)
        self.max_retries = max_retries
        #: VPU indices retired from scheduling after a failed replay.
        self.quarantined: set[int] = set()
        self._checker = (AbftChecker(integrity_seed)
                         if self.policy is not IntegrityPolicy.OFF else None)
        self.vpus = [
            VectorProcessingUnit(m=m, q=q,
                                 regfile_entries=required_registers(m),
                                 memory_rows=memory_rows)
            for _ in range(num_vpus)
        ]
        #: The compiled NTT per length; its lowering and lock-step
        #: schedule stay on it between batches.
        self._programs: dict[int, Program] = {}

    @property
    def healthy_units(self) -> tuple[int, ...]:
        """Indices of VPUs still in the scheduling rotation."""
        return tuple(i for i in range(self.num_vpus)
                     if i not in self.quarantined)

    def retire(self, index: int) -> None:
        """Explicitly retire one VPU from the rotation (the serving
        layer's capacity-shrink path, also used by chaos campaigns).

        Raises :class:`PoolExhaustedError` when the retirement would
        leave no healthy unit — the pool refuses to become a deadlock
        and the caller must reject or re-route instead.  Retiring an
        already-retired unit is a no-op.
        """
        if not 0 <= index < self.num_vpus:
            raise ValueError(f"VPU index {index} out of range "
                             f"[0, {self.num_vpus})")
        if index in self.quarantined:
            return
        remaining = [i for i in self.healthy_units if i != index]
        if not remaining:
            raise PoolExhaustedError(
                f"refusing to retire VPU {index}: it is the last healthy "
                f"unit of {self.num_vpus} (the pool would deadlock)")
        self.quarantined.add(index)
        obs.count("pool.retirements")
        obs.gauge("pool.quarantined_vpus", len(self.quarantined))
        obs.gauge("pool.healthy_vpus", len(remaining))

    def _pick_vpu(self, idx: int, attempt: int) -> int:
        """Round-robin over the healthy units; a retry (attempt > 0)
        lands on a different VPU than the failing one whenever a second
        healthy unit exists."""
        healthy = self.healthy_units
        return healthy[(idx + attempt) % len(healthy)]

    def _golden_row(self, data: np.ndarray, n: int) -> np.ndarray:
        """Software fallback matching the compiled program's output
        convention (natural-order plain cyclic NTT)."""
        from repro.ntt.cooley_tukey import vec_ntt_dif
        from repro.ntt.tables import get_tables

        t = get_tables(n, self.q)
        out = np.empty(n, dtype=np.uint64)
        out[t.bitrev] = vec_ntt_dif(
            np.asarray(data, dtype=np.uint64) % np.uint64(self.q), t)
        return out

    def run_ntt_batch(self, limbs: np.ndarray, n: int) -> tuple[np.ndarray, ParallelRunReport]:
        """Transform a batch of length-``n`` vectors (one per RNS limb),
        distributing them round-robin over the pool.

        Returns the natural-order NTT results (batch-major) and the run
        report.  Every VPU runs the identical compiled program; only the
        data differs — the SIMD regularity the vector architecture
        exploits.
        """
        limbs = np.asarray(limbs, dtype=np.uint64)
        if limbs.ndim != 2 or limbs.shape[1] != n:
            raise ValueError(f"expected (batch, {n}) input, got {limbs.shape}")
        with obs.span("pool.run_ntt_batch", cat="pool", instances=len(limbs),
                      n=n, num_vpus=self.num_vpus) as span:
            program = self._programs.get(n)
            if program is None:
                program = self._programs[n] = compile_ntt(n, self.m, self.q)
            rows = n // self.m
            outputs = np.empty_like(limbs)
            cycles = [0] * self.num_vpus
            detections = 0
            retries = 0
            degraded = 0
            for idx, data in enumerate(limbs):
                attempt = 0
                while True:
                    which = self._pick_vpu(idx, attempt)
                    vpu = self.vpus[which]
                    vpu.memory.data[:rows] = pack_for_ntt(data, self.m)
                    stats = vpu.run_fresh(program)
                    out = unpack_ntt_result(vpu.memory, n, self.m)
                    cycles[which] += stats.cycles
                    if self._checker is None or self._checker.check_cyclic_ntt_row(
                            data, out, self.q):
                        outputs[idx] = out
                        break
                    detections += 1
                    if (self.policy is IntegrityPolicy.DETECT
                            or attempt >= self.max_retries):
                        if (self.policy is IntegrityPolicy.DETECT_DEGRADE):
                            outputs[idx] = self._golden_row(data, n)
                            degraded += 1
                        else:
                            outputs[idx] = out  # flagged, surfaced as-is
                        break
                    # Replay on a spare unit; retire the failing one so the
                    # round-robin stops feeding it work — unless it is the
                    # last healthy unit, which then takes the replay.
                    if len(self.healthy_units) > 1:
                        self.retire(which)
                    attempt += 1
                    retries += 1
            report = ParallelRunReport(
                len(limbs), tuple(cycles), detections, retries,
                tuple(sorted(self.quarantined)), degraded)
            # The pool's scheduling figures, scrapable per run.  The
            # invariant the regression tests pin down: total_cycles sums
            # *every* unit's cycles, retired ones included.
            obs.gauge("pool.makespan_cycles", report.makespan_cycles)
            obs.gauge("pool.total_cycles", report.total_cycles)
            obs.gauge("pool.utilization", round(report.utilization, 6))
            obs.gauge("pool.quarantined_vpus", len(self.quarantined))
            obs.count("pool.instances", report.instances)
            obs.count("pool.detections", detections)
            obs.count("pool.retries", retries)
            obs.count("pool.degraded", degraded)
            span.set(makespan_cycles=report.makespan_cycles,
                     total_cycles=report.total_cycles)
        return outputs, report
