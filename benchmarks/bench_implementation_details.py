"""Implementation-detail artifacts: roofline placement and compiled-
program analysis.

Not a paper table — these are the secondary artifacts an accelerator
paper's implementation section reports, generated from the same models:
where each FHE op sits against the scratchpad roofline, and what the
compiled NTT/automorphism programs demand of the register files."""

from conftest import record
from repro.accel import Accelerator
from repro.analysis.dataflow import check_dataflow
from repro.automorphism import paper_sigma
from repro.mapping import compile_automorphism, compile_ntt, required_registers
from repro.perf.roofline import render_roofline, roofline_table

Q = 998244353


def build_artifacts():
    acc = Accelerator(num_vpus=8, lanes=64)
    roofline = roofline_table(acc)
    ntt_report = check_dataflow(compile_ntt(4096, 64), m=64)
    autom_report = check_dataflow(
        compile_automorphism(paper_sigma(4096, 3), 64), m=64)
    return roofline, ntt_report, autom_report


def render_program(report, label: str) -> str:
    """One-screen summary of a program's register and memory demands."""
    stats = report.stats
    lines = [f"program analysis: {label}",
             f"  instructions      : {report.instructions}"]
    for name, count in sorted(stats.by_type.items()):
        lines.append(f"    {name:14s}: {count}")
    lines.append(f"  register pressure : {report.register_pressure} "
                 f"(peak live {report.peak_live_registers})")
    lines.append(f"  memory rows       : {report.memory_footprint_rows} "
                 f"({len(report.memory_rows_read)} read, "
                 f"{len(report.memory_rows_written)} written)")
    lines.append(f"  resource ops      : {stats.network_passes} network, "
                 f"{stats.multiplier_busy} mult, {stats.adder_busy} add")
    return "\n".join(lines)


def test_implementation_details(benchmark, results_dir):
    roofline, ntt, autom = benchmark(build_artifacts)
    record(
        results_dir, "implementation_details",
        render_roofline(roofline) + "\n\n"
        + render_program(ntt, "NTT-4096 on 64 lanes") + "\n\n"
        + render_program(autom, "automorphism-4096 on 64 lanes"),
    )
    # Compiled programs honour the declared register budget.
    assert ntt.register_pressure <= required_registers(64)
    assert autom.register_pressure <= 2
    # The automorphism program is pure data movement: no arithmetic.
    assert autom.stats.multiplier_busy == 0 and autom.stats.adder_busy == 0
    assert autom.stats.network_passes == 4096 // 64
