"""Table IV: area and power of our inter-lane network for m = 4 .. 256.

Checks the published design points and the §V-D scaling claim
(~2.27x area / ~2.24x power per lane-count doubling)."""

import pytest

from conftest import record
from repro.hwmodel import PAPER_TABLE_IV, our_network_cost


def sweep():
    return {m: our_network_cost(m) for m in sorted(PAPER_TABLE_IV)}


def render(costs) -> str:
    lines = [f"{'lanes':>5s} {'area um^2':>12s} {'paper':>12s} {'err':>7s} "
             f"{'power mW':>9s} {'paper':>7s} {'err':>7s}"]
    for m, c in costs.items():
        pa, pp = PAPER_TABLE_IV[m]
        lines.append(
            f"{m:5d} {c.area_um2:12.2f} {pa:12.2f} {c.area_um2 / pa - 1:+6.1%} "
            f"{c.power_mw:9.2f} {pp:7.2f} {c.power_mw / pp - 1:+6.1%}"
        )
    a_ratio = (costs[256].area_um2 / costs[4].area_um2) ** (1 / 6)
    p_ratio = (costs[256].power_mw / costs[4].power_mw) ** (1 / 6)
    lines.append(f"growth per doubling: area {a_ratio:.2f}x (paper ~2.27x), "
                 f"power {p_ratio:.2f}x (paper ~2.24x)")
    return "\n".join(lines)


def test_table4(benchmark, results_dir):
    costs = benchmark(sweep)
    record(results_dir, "table4_scalability", render(costs))
    for m, c in costs.items():
        assert c.area_um2 == pytest.approx(PAPER_TABLE_IV[m][0], rel=0.10)
        assert c.power_mw == pytest.approx(PAPER_TABLE_IV[m][1], rel=0.10)
