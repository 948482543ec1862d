"""Table II: area and power of the permutation network and the full VPU,
ours versus F1 / BTS / ARK / SHARP, all ported to 64 lanes at 7 nm.

Regenerates both halves of the table from the structural cost models and
records model-vs-paper deltas.  The timed kernel is the full five-design
evaluation (the models are analytic, so this doubles as a regression
canary for accidental complexity)."""

import pytest

from conftest import record
from repro.baselines import NETWORK_COSTS
from repro.hwmodel import PAPER_TABLE_II, vpu_cost


def evaluate_all(m: int = 64):
    nets = {name: fn(m) for name, fn in NETWORK_COSTS.items()}
    vpus = {name: vpu_cost(m, net) for name, net in nets.items()}
    return nets, vpus


def render(nets, vpus) -> str:
    ours_net = nets["Ours"]
    lines = [
        f"{'design':7s} {'net area um^2':>14s} {'ratio':>6s} {'paper':>6s} "
        f"{'net mW':>8s} {'ratio':>6s} {'paper':>6s} "
        f"{'VPU area um^2':>14s} {'VPU mW':>8s}",
    ]
    for name in NETWORK_COSTS:
        net, vpu = nets[name], vpus[name]
        ra, rp = net.ratio_to(ours_net)
        pa = PAPER_TABLE_II[name][0] / PAPER_TABLE_II["Ours"][0]
        pp = PAPER_TABLE_II[name][2] / PAPER_TABLE_II["Ours"][2]
        lines.append(
            f"{name:7s} {net.area_um2:14.2f} {ra:5.2f}x {pa:5.2f}x "
            f"{net.power_mw:8.2f} {rp:5.2f}x {pp:5.2f}x "
            f"{vpu.area_um2:14.2f} {vpu.power_mw:8.2f}"
        )
    return "\n".join(lines)


def test_table2(benchmark, results_dir):
    nets, vpus = benchmark(evaluate_all)
    record(results_dir, "table2_area_power", render(nets, vpus))
    from repro.hwmodel.report import (
        network_breakdown,
        render_breakdown,
        vpu_breakdown,
    )

    record(results_dir, "vpu_breakdown",
           render_breakdown(vpu_breakdown(64), title="VPU m=64 (ours)")
           + "\n\n"
           + render_breakdown(network_breakdown(64),
                              title="inter-lane network m=64"))
    # The headline savings must reproduce.
    ra, rp = nets["F1"].ratio_to(nets["Ours"])
    assert ra == pytest.approx(9.4, rel=0.1)
    assert rp == pytest.approx(6.0, rel=0.1)
    va, vp = vpus["F1"].ratio_to(vpus["Ours"])
    assert va == pytest.approx(1.2, rel=0.05)
    assert vp == pytest.approx(1.1, rel=0.05)
