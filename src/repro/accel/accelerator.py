"""The multi-VPU accelerator and its workload scheduler.

Homomorphic operations parallelize naturally across RNS limbs and
ciphertext polynomials (each limb of each polynomial is an independent
length-N kernel).  The scheduler distributes those kernel instances
round-robin over the VPUs, charges SRAM/NoC movement for operand
staging, and reports makespan and lane utilization using the same cycle
models that reproduce Table III.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accel.noc import RingNoc
from repro.accel.sram import OnChipSram
from repro.hwmodel.components import CostReport
from repro.hwmodel.network_cost import our_network_cost
from repro.hwmodel.vpu_cost import vpu_cost
from repro.perf.cycles import automorphism_cycle_model, ntt_cycle_model


@dataclass(frozen=True)
class ScheduleReport:
    """Result of scheduling one ciphertext-level operation."""

    operation: str
    kernel_instances: int
    cycles_per_kernel: int
    vpu_cycles: tuple[int, ...]
    movement_cycles: int

    @property
    def makespan_cycles(self) -> int:
        """Compute makespan overlapped with (or bounded by) data movement."""
        return max(max(self.vpu_cycles), self.movement_cycles)

    @property
    def compute_bound(self) -> bool:
        return max(self.vpu_cycles) >= self.movement_cycles

    @property
    def vpu_load_balance(self) -> float:
        """Min/max VPU busy cycles (1.0 = perfectly balanced)."""
        peak = max(self.vpu_cycles)
        return min(self.vpu_cycles) / peak if peak else 1.0


@dataclass
class Accelerator:
    """Fig. 1a: ``num_vpus`` unified VPUs + scratchpad + ring NoC."""

    num_vpus: int = 8
    lanes: int = 64
    sram: OnChipSram = field(default_factory=OnChipSram)

    def __post_init__(self) -> None:
        if self.num_vpus < 1:
            raise ValueError("need at least one VPU")
        self.noc = RingNoc(nodes=self.num_vpus + 1)  # +1 = SRAM stop

    # -- scheduling ------------------------------------------------------------

    def _distribute(self, instances: int, cycles_each: int) -> tuple[int, ...]:
        base, extra = divmod(instances, self.num_vpus)
        return tuple(
            (base + (1 if v < extra else 0)) * cycles_each
            for v in range(self.num_vpus)
        )

    def _movement(self, instances: int, n: int, passes: int = 2) -> int:
        """SRAM + NoC cycles to stage each kernel in and out once."""
        total_words = instances * n * passes
        sram_cycles = self.sram.access_cycles(total_words // 2) + \
            self.sram.access_cycles(total_words - total_words // 2, write=True)
        per_instance = self.noc.transfer_cycles(0, 1 + (instances % self.num_vpus),
                                                n) if instances else 0
        return sram_cycles + per_instance

    def schedule_ntt(self, n: int, limbs: int, polys: int = 2) -> ScheduleReport:
        """All NTTs of one ciphertext-level op: limbs x polys instances."""
        instances = limbs * polys
        cycles = ntt_cycle_model(n, self.lanes).total_cycles
        return ScheduleReport(
            operation=f"ntt-{n}",
            kernel_instances=instances,
            cycles_per_kernel=cycles,
            vpu_cycles=self._distribute(instances, cycles),
            movement_cycles=self._movement(instances, n),
        )

    def schedule_automorphism(self, n: int, limbs: int,
                              polys: int = 2) -> ScheduleReport:
        """All automorphism kernels of one HRot: limbs x polys single-pass
        column streams."""
        instances = limbs * polys
        cycles = automorphism_cycle_model(n, self.lanes).total_cycles
        return ScheduleReport(
            operation=f"automorphism-{n}",
            kernel_instances=instances,
            cycles_per_kernel=cycles,
            vpu_cycles=self._distribute(instances, cycles),
            movement_cycles=self._movement(instances, n),
        )

    def schedule_elementwise(self, n: int, limbs: int, polys: int = 2,
                             ops: int = 1) -> ScheduleReport:
        """Element-wise passes (HAdd, twiddles, pointwise products)."""
        instances = limbs * polys
        cycles = (n // self.lanes) * ops
        return ScheduleReport(
            operation=f"elementwise-{n}",
            kernel_instances=instances,
            cycles_per_kernel=cycles,
            vpu_cycles=self._distribute(instances, cycles),
            movement_cycles=self._movement(instances, n),
        )

    def schedule_keyswitch(self, n: int, level: int) -> list[ScheduleReport]:
        """The §II-A keyswitch kernel mix at a given level.

        Digit decomposition: one inverse NTT per limb, then per digit a
        forward-NTT batch over every other limb plus the special prime (a
        digit is already in the evaluation domain in its own limb),
        element-wise multiply-accumulates against the key, and the final
        ModDown (inverse NTTs + element-wise fix-up).
        """
        limbs = level + 1
        reports = [
            self.schedule_ntt(n, limbs, polys=1),                     # to coeff
            self.schedule_ntt(n, limbs * limbs, polys=1),             # digits up
            self.schedule_elementwise(n, limbs + 1, polys=2, ops=limbs),  # MACs
            self.schedule_ntt(n, limbs + 1, polys=2),                 # ModDown iNTT
            self.schedule_elementwise(n, limbs, polys=2, ops=2),      # sub + scale
        ]
        return reports

    def schedule_hrot(self, n: int, level: int,
                      rotations: int = 1) -> list[ScheduleReport]:
        """HRot = automorphism + keyswitch (paper §II-A), ``rotations`` at once.

        Priced as the scheme layer's Galois fold runs it: every rotation
        permutes ``c0``; one rotation permutes ``c1`` and keyswitches it,
        several decompose ``c1`` once (the §II-A NTT batch, hoisted) and
        permute its digits per rotation — the optimization BSGS matvecs
        and bootstrapping rely on (cf.
        :meth:`repro.fhe.ckks.CkksContext.rotate_hoisted`).
        """
        if rotations < 1:
            raise ValueError("need at least one rotation")
        limbs = level + 1
        if rotations == 1:
            return ([self.schedule_automorphism(n, limbs)]
                    + self.schedule_keyswitch(n, level))
        decompose, digits_up, *finish = self.schedule_keyswitch(n, level)
        # Per rotation: c0 and the L digits over L + 1 limbs, then the
        # multiply-accumulates and its own ModDown.
        per_rotation = [self.schedule_automorphism(n, limbs * (limbs + 2),
                                                   polys=1), *finish]
        return [decompose, digits_up, *per_rotation * rotations]

    def schedule_hmult(self, n: int, level: int) -> list[ScheduleReport]:
        """HMult = pointwise tensor products + keyswitch + rescale."""
        limbs = level + 1
        return ([self.schedule_elementwise(n, limbs, polys=2, ops=2)]
                + self.schedule_keyswitch(n, level)
                + [self.schedule_ntt(n, limbs, polys=2)])  # rescale iNTT/NTT

    @staticmethod
    def total_makespan(reports: list[ScheduleReport]) -> int:
        return sum(r.makespan_cycles for r in reports)

    def operation_energy_nj(self, reports: list[ScheduleReport]) -> float:
        """Energy of one scheduled operation in nanojoules.

        Busy VPU cycles burn the full per-VPU power; idle VPUs and the
        makespan tail burn only the fabric's leakage-ish floor (taken as
        15% of active power).  At 1 GHz, mW * cycles = pJ.
        """
        per_vpu_mw = vpu_cost(self.lanes, our_network_cost(self.lanes)).power_mw
        idle_fraction = 0.15
        total_pj = 0.0
        for r in reports:
            busy = sum(r.vpu_cycles)
            idle = r.makespan_cycles * self.num_vpus - busy
            total_pj += busy * per_vpu_mw + max(idle, 0) * per_vpu_mw * idle_fraction
            total_pj += r.movement_cycles * self.sram.cost().power_mw
        return total_pj / 1e3

    # -- cost roll-up -------------------------------------------------------------

    def cost(self) -> CostReport:
        """Whole-chip area/power: VPUs + scratchpad + NoC."""
        one_vpu = vpu_cost(self.lanes, our_network_cost(self.lanes))
        total = CostReport(one_vpu.area_um2 * self.num_vpus,
                           one_vpu.power_mw * self.num_vpus,
                           f"{self.num_vpus} VPUs")
        return total + self.sram.cost() + self.noc.cost()
