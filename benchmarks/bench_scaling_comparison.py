"""Figure-style series: how every design's permutation hardware scales
with lane count.

The paper reports only our network's scaling (Table IV) and a single
m = 64 comparison point (Table II).  This bench extends the comparison
across m = 8 .. 256 with the same structural models, exposing the
asymptotics that drive the Table II gaps: the BTS crossbar grows ~m^2,
the SRAM-buffer designs grow ~m^2 with a big constant, ARK grows like
ours times its duplication factor, and the unified network grows
~m log m."""

import pytest

from conftest import record
from repro.baselines import NETWORK_COSTS

LANES = [8, 16, 32, 64, 128, 256]


def sweep():
    return {name: [fn(m) for m in LANES] for name, fn in NETWORK_COSTS.items()}


def render(series) -> str:
    lines = [f"{'m':>4s} " + "".join(f"{name:>12s}" for name in NETWORK_COSTS)]
    for i, m in enumerate(LANES):
        row = f"{m:4d} " + "".join(
            f"{series[name][i].area_um2:12.0f}" for name in NETWORK_COSTS)
        lines.append(row)
    lines.append("area growth factor m=8 -> m=256:")
    for name in NETWORK_COSTS:
        g = series[name][-1].area_um2 / series[name][0].area_um2
        lines.append(f"  {name:6s} {g:8.1f}x")
    return "\n".join(lines)


def test_scaling_comparison(benchmark, results_dir):
    series = benchmark(sweep)
    record(results_dir, "scaling_comparison_area_um2", render(series))

    growth = {name: series[name][-1].area_um2 / series[name][0].area_um2
              for name in NETWORK_COSTS}
    # The crossbar's quadratic growth dominates everything else.
    assert growth["BTS"] > 2 * growth["Ours"]
    # Model finding: a tiny crossbar (m = 8) is actually *smaller* than
    # the unified network — the m^2 vs m log m crossover sits between
    # m = 8 and m = 16, and from there the unified design is cheapest at
    # every scale the paper evaluates.
    assert series["BTS"][0].area_um2 < series["Ours"][0].area_um2
    for i, m in enumerate(LANES):
        if m < 16:
            continue
        ours = series["Ours"][i].area_um2
        for name in ["ARK", "BTS", "F1", "SHARP"]:
            assert series[name][i].area_um2 > ours, (name, m)
    # The advantage over BTS widens with m (m^2 vs m log m).
    first = series["BTS"][0].area_um2 / series["Ours"][0].area_um2
    last = series["BTS"][-1].area_um2 / series["Ours"][-1].area_um2
    assert last > first


def test_utilization_across_lane_counts(benchmark, results_dir):
    """Table III generalized: the utilization shape holds for other VPU
    widths too (dips whenever log2 N crosses a multiple of log2 m)."""
    from repro.perf import utilization_report

    def sweep_util():
        table = {}
        for m in [16, 32, 64, 128]:
            table[m] = [utilization_report(1 << logn, m).ntt_utilization
                        for logn in range(10, 21, 2)]
        return table

    table = benchmark(sweep_util)
    lines = [f"{'N':>6s} " + "".join(f"{'m=' + str(m):>9s}"
                                     for m in sorted(table))]
    for i, logn in enumerate(range(10, 21, 2)):
        lines.append(f"2^{logn:<4d} " + "".join(
            f"{100 * table[m][i]:8.2f}%" for m in sorted(table)))
    record(results_dir, "utilization_by_lane_count", "\n".join(lines))
    for m, series in table.items():
        assert all(0.6 < u <= 1.0 for u in series)
