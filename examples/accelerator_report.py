#!/usr/bin/env python3
"""Chip-level report: scheduling FHE operations on a multi-VPU accelerator.

Builds the Fig. 1(a) top level — eight 64-lane unified VPUs, a shared
scratchpad and a ring NoC — schedules HAdd / HRot / HMult across the
RNS-limb parallelism, and prices the whole chip, comparing against the
same chip built with each baseline permutation unit.

Run:  python examples/accelerator_report.py
"""

from repro.accel import Accelerator
from repro.baselines import NETWORK_COSTS
from repro.hwmodel import vpu_cost

N, LEVEL = 4096, 5


def main() -> None:
    acc = Accelerator(num_vpus=8, lanes=64)
    print(f"accelerator: {acc.num_vpus} x {acc.lanes}-lane VPUs, "
          f"{acc.sram.capacity_bytes >> 20} MiB scratchpad, "
          f"{acc.noc.nodes}-stop ring NoC")
    print(f"workload: CKKS N={N}, level {LEVEL} ({LEVEL + 1} limbs)\n")

    ops = {
        "HAdd": [acc.schedule_elementwise(N, LEVEL + 1)],
        "HRot": acc.schedule_hrot(N, LEVEL),
        "HMult": acc.schedule_hmult(N, LEVEL),
    }
    print(f"{'op':6s} {'phases':>6s} {'makespan':>9s} {'bound by':>9s}")
    for name, reports in ops.items():
        total = Accelerator.total_makespan(reports)
        bound = "compute" if all(r.compute_bound for r in reports) else "memory"
        print(f"{name:6s} {len(reports):6d} {total:8d}c {bound:>9s}")

    print("\nchip cost with each permutation-unit choice (8 VPUs):")
    print(f"{'design':7s} {'chip area mm^2':>14s} {'chip power W':>13s}")
    baseline_chip = None
    for name in ["Ours", "ARK", "BTS", "SHARP", "F1"]:
        vpus = vpu_cost(64, NETWORK_COSTS[name](64))
        chip_area = vpus.area_um2 * 8 + acc.sram.cost().area_um2 \
            + acc.noc.cost().area_um2
        chip_power = vpus.power_mw * 8 + acc.sram.cost().power_mw \
            + acc.noc.cost().power_mw
        marker = ""
        if name == "Ours":
            baseline_chip = (chip_area, chip_power)
        else:
            marker = (f"  (+{chip_area / baseline_chip[0] - 1:.1%} area, "
                      f"+{chip_power / baseline_chip[1] - 1:.1%} power)")
        print(f"{name:7s} {chip_area / 1e6:14.3f} {chip_power / 1e3:13.3f}"
              f"{marker}")


if __name__ == "__main__":
    main()
