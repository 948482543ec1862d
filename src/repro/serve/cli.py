"""``python -m repro.serve`` — benchmark and chaos campaign.

Modes (mutually exclusive):

* ``--bench`` (default): run the open/closed-loop synthetic-trace
  benchmark and write ``BENCH_serve.json`` (schema-1 envelope).
* ``--chaos``: run the chaos campaign and exit nonzero on any
  robustness violation (hung request, silent corruption, untyped
  failure, unbounded p99, or too few injections).

An artifact's envelope is shape-checked by ``python -m repro.obs
--validate-envelope PATH``.

``REPRO_TRACE=1`` enables the obs hook for any mode, in which case a
metrics snapshot accompanies the run on stderr-free stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs import current_obs_hook, enable_from_env
from repro.obs.export import validate_envelope


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="resilient FHE serving layer: bench and chaos drivers")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--bench", action="store_true",
                      help="run the synthetic-trace benchmark (default)")
    mode.add_argument("--chaos", action="store_true",
                      help="run the chaos campaign; nonzero exit on any "
                           "robustness violation")
    parser.add_argument("--requests", type=int, default=None,
                        help="request count (default: 100000 bench, "
                             "600 chaos)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=24)
    parser.add_argument("--rate", type=float, default=3000.0,
                        help="open-loop base arrival rate (requests/s)")
    parser.add_argument("--mode", choices=("open", "closed"),
                        default="open", help="bench loop mode")
    parser.add_argument("--time-scale", type=float, default=1.0,
                        help="scale simulated service times (smoke runs "
                             "use < 1)")
    parser.add_argument("--executor", choices=("sim", "ckks"),
                        default="sim", help="chaos campaign executor")
    parser.add_argument("--min-injections", type=int, default=200)
    parser.add_argument("--intensity", type=float, default=1.0,
                        help="chaos rate multiplier in (0, 1]")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON artifact here "
                             "(default BENCH_serve.json for --bench)")
    return parser


def _emit_metrics() -> None:
    observer = current_obs_hook()
    if observer is not None:
        snapshot = observer.metrics.snapshot()
        print(json.dumps({"obs": snapshot}, indent=2, sort_keys=True),
              file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    enable_from_env()

    if args.chaos:
        from repro.serve.chaos import run_chaos_campaign

        outcome = run_chaos_campaign(
            requests=args.requests if args.requests is not None else 900,
            seed=args.seed, executor=args.executor,
            min_injections=args.min_injections, intensity=args.intensity)
        report = {
            "submitted": outcome.submitted,
            "resolved": outcome.resolved,
            "injections": outcome.injections,
            "affected": outcome.affected,
            "hung": outcome.hung,
            "silent": outcome.silent,
            "untyped": outcome.untyped,
            "p99_latency_s": round(outcome.p99_latency, 6),
            "outcomes": outcome.outcomes,
            "by_site": outcome.by_site,
            "violations": outcome.violations,
            "passed": outcome.passed,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        if args.out is not None:
            args.out.write_text(json.dumps(report, indent=2, sort_keys=True)
                                + "\n")
        _emit_metrics()
        return 0 if outcome.passed else 1

    # Default: the benchmark.
    from repro.serve.bench import run_bench

    artifact = run_bench(
        requests=args.requests if args.requests is not None else 100_000,
        seed=args.seed, workers=args.workers, rate=args.rate,
        mode=args.mode, time_scale=args.time_scale)
    problems = validate_envelope(artifact)
    if problems:  # pragma: no cover - host_envelope is well-formed
        for problem in problems:
            print(f"ENVELOPE: {problem}", file=sys.stderr)
        return 1
    out_path = args.out if args.out is not None else Path("BENCH_serve.json")
    out_path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path} "
          f"(p50={artifact['results']['latency_s']['p50'] * 1e3:.2f} ms, "
          f"p99={artifact['results']['latency_s']['p99'] * 1e3:.2f} ms, "
          f"throughput={artifact['results']['throughput_rps']:.0f} rps)")
    _emit_metrics()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
