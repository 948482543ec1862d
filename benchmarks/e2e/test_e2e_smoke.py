"""Smoke test of the end-to-end benchmark at toy parameters.

Not part of tier-1 (``testpaths = ["tests"]``); run it by name::

    python3 -m pytest benchmarks/e2e/test_e2e_smoke.py

Every workload runs in its own process, as the driver runs it.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path.insert(0, str(HERE))


def run(workload: str, trace: int, out: Path, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.6", "--trace", str(trace), "--smoke",
         "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return done


def last_json(done) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_listed_metric_is_emitted(workload, trace, tmp_path):
    result = last_json(run(workload, trace, tmp_path))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    units = {m["name"]: m["unit"] for m in listed}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    # The trace the run wrote: children inside parents, self times
    # under each root summing to the root within 2 %.
    from spans import SpanTable

    events = json.loads((tmp_path / f"trace-{workload}-seed3.json")
                        .read_text())["traceEvents"]
    assert events
    spans = [[e["name"], e["cat"], round(e["ts"] * 1e3),
              round((e["ts"] + e["dur"]) * 1e3), e["args"]["parent"],
              e["args"]["rows"]] for e in events]
    assert SpanTable(spans).problems(tolerance=0.02) == []


def test_names_and_limits_of_the_spec():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": m["bound"]} for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_fails_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("ops_compiled", 0, tmp_path / "results", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_compare_judges_two_sets(tmp_path):
    last_json(run("ops_compiled", 0, tmp_path / "a"))
    worse = tmp_path / "worse"
    worse.mkdir()
    for path in (tmp_path / "a").glob("*-trace0.json"):
        result = json.loads(path.read_text())
        result["metrics"]["op_p50_ms"]["value"] *= 2
        (worse / path.name).write_text(json.dumps(result))
    for other, code, verdict in (("a", 0, "same"), ("worse", 1, "worse")):
        done = subprocess.run(
            [sys.executable, str(HERE / "compare.py"), str(tmp_path / "a"),
             str(tmp_path / other)], capture_output=True, text=True,
            timeout=60)
        assert done.returncode == code and verdict in done.stdout
