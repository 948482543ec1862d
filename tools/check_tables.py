#!/usr/bin/env python3
"""Release gate: verify every reproduced paper number is in tolerance.

Runs the same checks the regression tests pin, as one standalone script
suitable for CI or a pre-release sanity pass.  Exits nonzero — with a
diff-style report — if any table entry drifted.

    python tools/check_tables.py
"""

from __future__ import annotations

import sys

FAILURES: list[str] = []


def check(label: str, got: float, want: float, rel_tol: float) -> None:
    err = abs(got - want) / abs(want)
    status = "ok " if err <= rel_tol else "FAIL"
    print(f"[{status}] {label:55s} got {got:12.4f} want {want:12.4f} "
          f"({100 * err:5.2f}% vs {100 * rel_tol:.0f}% tol)")
    if err > rel_tol:
        FAILURES.append(label)


def check_table2() -> None:
    from repro.baselines import NETWORK_COSTS
    from repro.hwmodel import PAPER_TABLE_II, vpu_cost

    for name, cost in NETWORK_COSTS.items():
        net = cost(64)
        vpu = vpu_cost(64, net)
        na, va, np_, vp = PAPER_TABLE_II[name]
        check(f"Table II {name} network area", net.area_um2, na, 0.12)
        check(f"Table II {name} network power", net.power_mw, np_, 0.12)
        check(f"Table II {name} VPU area", vpu.area_um2, va, 0.05)
        check(f"Table II {name} VPU power", vpu.power_mw, vp, 0.05)


def check_table3() -> None:
    from repro.perf import PAPER_TABLE_III, utilization_report

    for n, (paper_ntt, paper_autom) in sorted(PAPER_TABLE_III.items()):
        row = utilization_report(n)
        label = f"Table III N=2^{n.bit_length() - 1} NTT utilization"
        err = abs(row.ntt_utilization - paper_ntt)
        status = "ok " if err <= 0.05 else "FAIL"
        print(f"[{status}] {label:55s} got {row.ntt_utilization:12.4f} "
              f"want {paper_ntt:12.4f} ({100 * err:5.2f}pp vs 5pp tol)")
        if err > 0.05:
            FAILURES.append(label)
        if row.automorphism_utilization != paper_autom:
            FAILURES.append(f"{label} (automorphism)")


def check_table4() -> None:
    from repro.hwmodel import PAPER_TABLE_IV, our_network_cost

    for m, (area, power) in PAPER_TABLE_IV.items():
        c = our_network_cost(m)
        check(f"Table IV m={m} area", c.area_um2, area, 0.10)
        check(f"Table IV m={m} power", c.power_mw, power, 0.10)


def main() -> int:
    check_table2()
    check_table3()
    check_table4()
    if FAILURES:
        print(f"\n{len(FAILURES)} table entries out of tolerance:")
        for f in FAILURES:
            print(f"  - {f}")
        return 1
    print("\nall reproduced table entries within tolerance.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
