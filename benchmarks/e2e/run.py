#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark in this process.

    python3 benchmarks/e2e/run.py --workload ops_compiled --seed 1 \
        --seconds 12 --trace 0

Prints every metric by name with its unit, then, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json`` from an untraced pass; ``--trace 1`` reports its
per-layer metrics from an untraced pass, a traced pass and the direct
layer probes.  ``BENCHMARK.json`` is the one list of metric names and
units: a value this file computes but the list lacks, or the reverse,
is an error.  Nothing runs at import time.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: ``setup_s`` is the median over the set-ups of one run: at least
#: three, then more while they are cheap, because the first one or two
#: in a process pay one-time costs and a median of three flips between
#: a warm and a half-warm value.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 7, 4.5
#: Self time of these spans is reported as ``<span>.self_share``.
FUNCTION_SPANS = (
    "request", "serve.executor.run",
    "fhe.linear.matvec_bsgs", "fhe.polyeval.power_basis",
    "fhe.ckks.multiply", "fhe.ckks.rotate", "fhe.ckks.relinearize",
    "fhe.ckks.rescale", "fhe.ckks.multiply_plain", "fhe.ckks.add",
    "fhe.ckks.decrypt",
    "fhe.keyswitch.decompose_digits",
    "fhe.keyswitch.accumulate_keyswitch", "fhe.keyswitch.mod_down",
    "fhe.keyswitch.rescale",
    "fhe.backend.forward_ntt_batch", "fhe.backend.inverse_ntt_batch",
    "fhe.backend.automorphism_eval_batch",
    "fhe.backend.keyswitch_inner_product",
)
#: Op kinds every workload executes somewhere in its span trees, and the
#: span that stands for one op of that kind.
KIND_SPANS = {"hmult": "fhe.ckks.multiply", "hrot": "fhe.ckks.rotate",
              "keyswitch": "fhe.keyswitch.apply_keyswitch",
              "rescale": "fhe.ckks.rescale"}
#: Counts a workload makes itself; zero on a workload that never enters
#: the layer.
WORKLOAD_COUNTS = (
    "serve.queue_share", "serve.dispatch_share", "serve.compute_share",
    "serve.verify_share", "serve.overhead_share",
    "serve.generator_lag_p95_gaps", "serve.retries", "serve.shed",
    "serve.timeouts", "serve.degraded",
    "fault.integrity_checks.hmult", "fault.integrity_checks.hrot",
    "fault.integrity_checks.keyswitch", "fault.integrity_checks.rescale",
    "fault.integrity_mismatches",
    "core.cycles.hmult", "core.cycles.hrot", "core.cycles.keyswitch",
    "core.cycles.rescale", "core.cycles_per_round",
    "core.multiplier_busy_share", "core.adder_busy_share",
    "core.network_passes_per_round", "core.loads_per_round",
    "core.stores_per_round", "core.sim_cycles_per_host_s",
    "backend_vpu.program_cache_hit_ratio",
) + tuple(f"core.instr.{name}" for name in (
    "VAdd", "VSub", "VMul", "VMulScalar", "VMulTwiddle", "Butterfly",
    "NttStage", "NetworkPass", "Load", "Store"))


def pin_threads() -> int:
    """One OpenMP thread fewer than there are cores, fixed before any
    kernel loads.  With a thread on every core, anything else that runs
    on the host (the driver included) stalls the kernels' barriers:
    HMult went from 31 to 62 ms beside one busy process with 2 threads
    on this 2-core host, and from 36 to 37 ms with 1."""
    nproc = len(os.sched_getaffinity(0))
    os.environ["OMP_NUM_THREADS"] = str(max(1, nproc - 1))
    return nproc


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def end_to_end(workload, result, setups) -> dict[str, float]:
    """End-to-end metrics at nominal host speed.  ``setups`` holds, per
    set-up, its seconds and the host slowdown measured right after."""
    times = result.samples[workload.headline]
    return {
        "setup_s": statistics.median(s / slow for s, slow in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": percentile(times, 50) * 1e3,
        "ops_per_s": result.throughput,
    }


def per_layer(workload, untraced, traced, table, probes, max_err):
    """Per-layer metrics: self-time shares and exact backend counts from
    the span table, the workload's own counts, the direct probes."""
    from spans import LAYERS

    out = dict.fromkeys(WORKLOAD_COUNTS, 0.0)
    out.update(traced.layer)
    out.update(probes)
    shares = table.self_share_by(lambda i: table.layers[i])
    for layer in LAYERS:
        out[f"{layer}.self_share"] = shares.get(layer, 0.0)
    by_name = table.self_share_by(lambda i: table.names[i])
    for name in FUNCTION_SPANS:
        out[f"{name}.self_share"] = by_name.get(name, 0.0)

    def subtree(indices, suffix):
        dur = table.dur[indices].sum()
        count = len(indices)
        out[f"backend.busy_share.{suffix}"] = float(
            table.busy_ns[indices].sum() / dur)
        out[f"backend.calls.{suffix}"] = float(
            table.calls[indices].sum() / count)
        for key, short in (("forward_ntt_batch", "fwd_ntt"),
                           ("inverse_ntt_batch", "inv_ntt"),
                           ("automorphism_eval_batch", "automorphism")):
            out[f"backend.{short}_rows.{suffix}"] = float(
                table.kernel_rows[key][indices].sum() / count)

    subtree(table.roots(), "op")
    for kind, name in KIND_SPANS.items():
        indices = table.indices(name)
        subtree(indices, kind)
        out[f"trace.{kind}_p50_ms"] = percentile(table.dur[indices], 50) / 1e6
    headline = workload.headline
    out["bench.trace_overhead_ratio"] = (
        percentile(traced.samples[headline], 50)
        / percentile(untraced.samples[headline], 50))
    out["bench.op_p50_ms"] = percentile(untraced.samples[headline], 50) * 1e3
    out["bench.op_p90_ms"] = percentile(untraced.samples[headline], 90) * 1e3
    out["bench.host_slowdown"] = (
        percentile(untraced.raw[headline], 50)
        / percentile(untraced.samples[headline], 50))
    out["fhe.ckks.max_abs_err"] = max_err
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy parameters (for the smoke test)")
    parser.add_argument("--out", type=Path,
                        help="directory for a result file compare.py reads")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"nothing to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    nproc = pin_threads()
    os.environ.setdefault("REPRO_KERNEL_CACHE",
                          str(ROOT / ".bench_build" / "kernels"))
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from repro.fhe.backend import clear_caches
    from repro.kernels import CompiledBackend
    from repro.obs.export import host_envelope

    import probes
    import workloads
    from spans import Recorder, SpanTable, write_chrome_trace

    provider = CompiledBackend().provider_name
    if provider is None:
        print("no compiled-kernel provider (cc or numba) on this host",
              file=sys.stderr)
        return 3

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.smoke)
    setups = []
    spent = 0.0
    while len(setups) < (1 if args.smoke else MIN_SETUPS) or (
            not args.smoke and len(setups) < MAX_SETUPS
            and spent < SETUP_BUDGET_S):
        clear_caches()
        gc.collect()
        start = time.perf_counter()
        workload.setup(args.seed)
        seconds = time.perf_counter() - start
        spent += seconds
        setups.append((seconds, workloads.host_slowdown(
            [workloads.yardstick() for _ in range(9)])))
    correct, max_err = workload.check()

    # Set-up ran every op once; a short second pass warms what is left.
    workload.run(0.0)
    if args.trace:
        # Untraced and traced segments alternate, so drift in the host
        # lands on both sides of the overhead ratio.
        recorder = Recorder()
        untraced, traced = workloads.Pass(workload.kinds), workloads.Pass(
            workload.kinds)
        for _ in range(2):
            untraced.merge(workload.run(args.seconds * 0.2))
            traced.merge(workload.run(args.seconds * 0.2, recorder))
        table = SpanTable(recorder.spans)
        for problem in table.problems():
            print(f"span tree: {problem}", file=sys.stderr)
            correct = False
        write_chrome_trace(
            recorder.spans,
            (args.out or workloads.OUT_DIR)
            / f"trace-{args.workload}-seed{args.seed}.json")
        values = per_layer(workload, untraced, traced, table,
                           probes.run_all(args.smoke), max_err)
        passes = (untraced, traced)
        section = "per_layer"
    else:
        untraced = workload.run(args.seconds)
        values = end_to_end(workload, untraced, setups)
        passes = (untraced,)
        section = "end_to_end"

    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(units):
        print(f"metric names differ from BENCHMARK.json {section}: "
              f"missing {sorted(set(units) - set(values))}, "
              f"unlisted {sorted(set(values) - set(units))}", file=sys.stderr)
        return 4
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        print(f"non-finite metrics: {bad}", file=sys.stderr)
        return 5

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    info = host_envelope("e2e")
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, smoke=args.smoke, provider=provider,
                nproc=nproc, omp_num_threads=os.environ["OMP_NUM_THREADS"],
                setups=setups, max_abs_err=max_err,
                raw_p50_ms=percentile(
                    passes[0].raw[workload.headline], 50) * 1e3,
                samples={kind: len(times)
                         for kind, times in passes[-1].samples.items()})
    print(json.dumps(info))
    for name in sorted(values):
        print(f"{name:44s} {values[name]:.6g} {units[name]}")
    result = {"correct": bool(correct and failed == 0),
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps({"info": info, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
