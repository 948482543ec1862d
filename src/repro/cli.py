"""Command-line interface: regenerate the paper's results from a shell.

::

    uvpu-fhe table2      # area/power comparison vs F1/BTS/ARK/SHARP
    uvpu-fhe table3      # NTT/automorphism throughput utilization
    uvpu-fhe table4      # network scaling m = 4 .. 256
    uvpu-fhe verify      # run an NTT + automorphism on the VPU model
    uvpu-fhe chip        # multi-VPU accelerator report

Installed as a console script by ``pip install -e .``, or run as
``python -m repro.cli <command>``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def cmd_table2(_args) -> int:
    from repro.baselines import NETWORK_COSTS
    from repro.hwmodel import vpu_cost

    costs = {name: cost(64) for name, cost in NETWORK_COSTS.items()}
    ours = costs["Ours"]
    print(f"{'design':7s} {'net um^2':>10s} {'ratio':>6s} {'mW':>7s} "
          f"{'ratio':>6s} {'VPU um^2':>11s} {'VPU mW':>8s}")
    for name, c in costs.items():
        ra, rp = c.ratio_to(ours)
        v = vpu_cost(64, c)
        print(f"{name:7s} {c.area_um2:10.2f} {ra:5.2f}x {c.power_mw:7.2f} "
              f"{rp:5.2f}x {v.area_um2:11.2f} {v.power_mw:8.2f}")
    return 0


def cmd_table3(_args) -> int:
    from repro.perf.utilization import format_table3

    print(format_table3())
    return 0


def cmd_table4(_args) -> int:
    from repro.hwmodel import our_network_cost

    print(f"{'lanes':>5s} {'area um^2':>12s} {'power mW':>9s}")
    for m in [4, 8, 16, 32, 64, 128, 256]:
        c = our_network_cost(m)
        print(f"{m:5d} {c.area_um2:12.2f} {c.power_mw:9.2f}")
    return 0


def cmd_verify(args) -> int:
    from repro.automorphism import paper_sigma
    from repro.core import VectorProcessingUnit
    from repro.mapping import (
        compile_automorphism,
        compile_ntt,
        pack_for_ntt,
        required_registers,
        unpack_columns,
        unpack_ntt_result,
    )
    from repro.ntt import vec_ntt_dif
    from repro.ntt.tables import get_tables

    q = 998244353
    n, m = args.n, args.m
    vpu = VectorProcessingUnit(m=m, q=q, regfile_entries=required_registers(m),
                               memory_rows=max(16, 2 * n // m))
    x = np.random.default_rng(args.seed).integers(0, q, n, dtype=np.uint64)

    vpu.memory.data[:n // m] = pack_for_ntt(x, m)
    stats = vpu.run_fresh(compile_ntt(n, m))
    got = unpack_ntt_result(vpu.memory, n, m)
    t = get_tables(n, q)
    expected = np.empty(n, dtype=np.uint64)
    expected[t.bitrev] = vec_ntt_dif(x, t)
    ntt_ok = bool(np.array_equal(got, expected))
    print(f"NTT-{n} on {m} lanes: {'OK' if ntt_ok else 'MISMATCH'} "
          f"({stats.cycles} instructions)")

    sigma = paper_sigma(n, 3)
    vpu.memory.data[:n // m] = pack_for_ntt(x, m)
    stats = vpu.run_fresh(compile_automorphism(sigma, m))
    out = unpack_columns(vpu.memory, n, m, base_row=n // m)
    autom_ok = bool(np.array_equal(out, sigma.apply(x)))
    print(f"automorphism sigma_(5,3): {'OK' if autom_ok else 'MISMATCH'} "
          f"({stats.network_passes} network passes = N/m)")
    return 0 if ntt_ok and autom_ok else 1


def cmd_controls(args) -> int:
    """Emulates the authors' open-sourced control-signal generator
    (github.com/tsinghua-ideal/automorphism-decomposition)."""
    from repro.automorphism import (
        affine_controls,
        control_table_size_bits,
        paper_sigma,
    )

    m = args.m
    if args.k is not None:
        ks = [args.k]
    elif args.r is not None:
        ks = [paper_sigma(m, args.r).multiplier]
    else:
        ks = list(range(1, m, 2))
    controls = [(k, affine_controls(m, k, args.s)) for k in ks]
    print(f"shift-network control words, m={m} "
          f"(stages {m // 2}..1, MSB-first per stage):")
    for k, c in controls:
        word = "".join(
            "".join(str(b) for b in c.group_bits[bi])
            for bi in reversed(range(len(c.group_bits)))
        )
        print(f"  k={k:3d} s={args.s:3d}: {word}  ({c.total_bits} bits)")
    print(f"table: {m // 2} automorphisms x {m - 1} bits = "
          f"{control_table_size_bits(m)} bits")
    return 0


def cmd_breakdown(args) -> int:
    from repro.hwmodel.report import (
        network_breakdown,
        render_breakdown,
        vpu_breakdown,
    )

    print(render_breakdown(vpu_breakdown(args.m), title=f"VPU m={args.m}"))
    print()
    print(render_breakdown(network_breakdown(args.m),
                           title=f"inter-lane network m={args.m}"))
    return 0


def cmd_motivation(args) -> int:
    from repro.accel.dram import (
        decomposed_ntt_traffic,
        naive_ntt_traffic,
    )

    sram = args.sram_mib << 20
    rows = [(log_n, naive_ntt_traffic(1 << log_n, sram),
             decomposed_ntt_traffic(1 << log_n, 64, sram))
            for log_n in range(14, 23, 2)]
    print(f"{'N':>6s} {'naive MB':>10s} {'4-step MB':>10s} {'ratio':>7s}")
    for log_n, naive, dec in rows:
        ratio = naive.burst_bytes_moved / dec.burst_bytes_moved
        print(f"2^{log_n:<4d} {naive.burst_bytes_moved / 2**20:10.1f} "
              f"{dec.burst_bytes_moved / 2**20:10.1f} {ratio:6.1f}x")
    return 0


def cmd_chip(args) -> int:
    from repro.accel import Accelerator

    acc = Accelerator(num_vpus=args.vpus, lanes=64)
    chip = acc.cost()
    print(f"{args.vpus} x 64-lane VPUs + {acc.sram.capacity_bytes >> 20} MiB "
          f"SRAM + ring NoC: {chip.area_um2 / 1e6:.2f} mm^2, "
          f"{chip.power_mw / 1e3:.2f} W")
    for op, reports in [
        ("HMult", acc.schedule_hmult(4096, 5)),
        ("HRot", acc.schedule_hrot(4096, 5)),
    ]:
        print(f"{op}: {Accelerator.total_makespan(reports)} cycles @ 1 GHz")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uvpu-fhe",
        description="Unified VPU for FHE — paper-result regeneration",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table2", help="area/power vs baselines").set_defaults(
        func=cmd_table2)
    sub.add_parser("table3", help="throughput utilization").set_defaults(
        func=cmd_table3)
    sub.add_parser("table4", help="network scaling").set_defaults(
        func=cmd_table4)
    verify = sub.add_parser("verify", help="run kernels on the VPU model")
    verify.add_argument("--n", type=int, default=4096)
    verify.add_argument("--m", type=int, default=64)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)
    chip = sub.add_parser("chip", help="accelerator report")
    chip.add_argument("--vpus", type=int, default=8)
    chip.set_defaults(func=cmd_chip)
    controls = sub.add_parser(
        "controls", help="dump automorphism shift-network control words")
    controls.add_argument("--m", type=int, default=64)
    which = controls.add_mutually_exclusive_group()
    which.add_argument("--k", type=int, default=None,
                       help="automorphism multiplier (odd)")
    which.add_argument("--r", type=int, default=None,
                       help="rotation amount (k = 5^r mod m)")
    controls.add_argument("--s", type=int, default=0,
                          help="additional cyclic shift to merge")
    controls.set_defaults(func=cmd_controls)
    breakdown = sub.add_parser("breakdown", help="component cost split")
    breakdown.add_argument("--m", type=int, default=64)
    breakdown.set_defaults(func=cmd_breakdown)
    motivation = sub.add_parser("motivation",
                                help="off-chip traffic: naive vs decomposed")
    motivation.add_argument("--sram-mib", type=int, default=1)
    motivation.set_defaults(func=cmd_motivation)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.obs import enable_from_env
    from repro.obs.export import format_attribution

    parser = build_parser()
    args = parser.parse_args(argv)
    # REPRO_TRACE=1 turns on the observability hook for any command and
    # appends the per-phase cycle-attribution table to the output.
    observer = enable_from_env()
    try:
        status = args.func(args)
    except ValueError as exc:
        # The models refuse a bad size with a ValueError: report it as
        # the usage error it is (exit 2, as argparse's own errors do).
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")
    if observer is not None:
        print("\n[repro.obs] cycle attribution (REPRO_TRACE)")
        print(format_attribution(observer.tracer))
    return status


if __name__ == "__main__":
    sys.exit(main())
