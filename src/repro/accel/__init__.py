"""Accelerator top level (paper Fig. 1a).

Multiple VPUs connected by a NoC, fed from on-chip SRAM.  The paper's
contribution lives inside the VPU; this layer reproduces the surrounding
structure so workload-level numbers (keyswitch, HMult, HRot across all
RNS limbs and both ciphertext polynomials) can be scheduled and priced.

* :mod:`repro.accel.sram` — banked on-chip SRAM with bandwidth/energy
  accounting.
* :mod:`repro.accel.noc` — a ring NoC with per-hop latency/energy.
* :mod:`repro.accel.accelerator` — the multi-VPU scheduler and the
  full-chip cost roll-up.
* :mod:`repro.accel.parallel` — functional multi-VPU execution: a batch
  of NTTs on the units of one :class:`~repro.fhe.backend.VpuBackend`,
  with the makespan and utilization the scheduler predicts.
"""

from repro.accel.accelerator import Accelerator, ScheduleReport
from repro.accel.dram import DramModel
from repro.accel.noc import RingNoc
from repro.accel.parallel import ParallelRunReport, ParallelVpuPool
from repro.accel.sram import OnChipSram

__all__ = [
    "Accelerator",
    "DramModel",
    "OnChipSram",
    "ParallelRunReport",
    "ParallelVpuPool",
    "RingNoc",
    "ScheduleReport",
]
