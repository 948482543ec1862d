#!/usr/bin/env python3
"""Compare sets of result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A/            # spread within one set
    python3 benchmarks/e2e/compare.py A/ B/         # B against A

One row per (end-to-end metric, workload): the median and quartiles of
each set, the bound from ``BENCHMARK.json``, and a verdict.  With two
sets the verdict is ``better``, ``same``, ``worse`` (B's median is worse
than A's by more than the bound) or ``unresolved`` (a set's spread is
wider than the bound and the runs of B do not all beat the runs of A);
the exit code is 1 on any ``worse``.  With one set the verdict is
``steady`` when the spread is below a third of the bound, ``wide`` when
it is above the bound, and the exit code is 1 on any ``wide``.

Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory: Path) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over the untraced result files."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        result = json.loads(path.read_text())
        if not result["correct"]:
            raise SystemExit(f"{path}: the run failed its correctness check")
        for name, metric in result["metrics"].items():
            values.setdefault((result["info"]["workload"], name),
                              []).append(metric["value"])
    if not values:
        raise SystemExit(f"{directory}: no *-trace0.json result files")
    return values


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first quartile, third quartile, spread."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(Path(arg)) for arg in argv]
    failed = False
    print(f"{'workload':13s} {'metric':12s} "
          + "".join(f"{'median':>11s} {'q1':>10s} {'q3':>10s} {'spread':>7s} "
                    for _ in sets) + f"{'bound':>6s}  verdict")
    for key in sorted(sets[0]):
        workload, name = key
        metric = metrics[name]
        bound = metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        stats = [summary(s[key]) for s in sets if key in s]
        if len(stats) < len(sets):
            continue
        if len(sets) == 1:
            spread = stats[0][3]
            verdict = ("steady" if spread < bound / 3
                       else "wide" if spread > bound else "ok")
            failed |= verdict == "wide"
        else:
            (base, *_, spread_a), (new, *_, spread_b) = stats
            change = sign * (new - base) / base
            runs_a = [sign * v for v in sets[0][key]]
            runs_b = [sign * v for v in sets[1][key]]
            if max(spread_a, spread_b) > bound and not max(runs_b) < min(runs_a):
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
            elif change < -max(spread_a, spread_b):
                verdict = "better"
            else:
                verdict = "same"
            failed |= verdict == "worse"
        print(f"{workload:13s} {name:12s} "
              + "".join(f"{m:11.5g} {q1:10.5g} {q3:10.5g} {s:7.1%} "
                        for m, q1, q3, s in stats)
              + f"{bound:6.0%}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
