#!/usr/bin/env python3
"""Reach gate: which of ``src/repro``'s functions the product's entry
points run.

Runs every entry point below (the CI jobs' commands, the examples, the
``repro.cli`` commands and the end-to-end benchmark's smoke runs) under
``sys.setprofile``, forked children included, and records each
``src/repro`` code object on its first call.  A function's lines run
from its first decorator to its last line, and a nested function counts
inside its parent.  Prints the reached share of function lines per
module and fails when a module has function lines, none of them
reached, and no entry in ``ALLOWED``.  Every output goes to a temporary
directory, except the paper-reproduction scripts' ``benchmarks/out/*.txt``,
which they rewrite with the committed bytes: a run leaves ``git status``
clean (a text that comes out different is the change CI's
``git diff --exit-code benchmarks/out`` refuses).

    PYTHONPATH=src python tools/reach.py
"""

from __future__ import annotations

import ast
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

ALLOWED = {
    "ntt/reference.py": "the O(N^2) oracle tests hold the VPU's wide primes to",
    "mapping/reduction.py": "§III-A's cross-lane sum; only tests run it",
    "fhe/backend/protocol.py": "typing.Protocol stubs, which nothing calls",
    "serve/errors.py": "RejectedError's constructor; no entry overloads",
}

_E2E = "benchmarks/e2e/run.py --seed 3 --seconds 0.6 --smoke --out {tmp}"
_WORKLOADS = ("ops_compiled", "ops_numpy", "ops_detect", "pipeline",
              "vpu_model", "serve_ckks")
_OBS = "-m repro.obs --quick --trace {tmp}/t.json --metrics {tmp}/m.json"

ENTRIES = [
    # the CI jobs' commands, in job order
    "-m pytest benchmarks -q --benchmark-disable --ignore=benchmarks/e2e "
    "-p no:cacheprovider",
    "-c 'from repro.kernels import CompiledBackend; "
    "CompiledBackend().provider_name'",
    "-c 'import repro.fhe.backend, repro.kernels'",
    "-c 'import sys; sys.path.insert(0, \"tools\"); "
    "import gen_api_docs; gen_api_docs.render()'",
    "benchmarks/bench_kernel_batching.py --quick --out {tmp}/k.json",
    "-m repro.obs --validate-envelope {tmp}/k.json",
    "-m repro.fault --campaign smoke --json {tmp}/f.json",
    "-m repro.fault --campaign smoke --audit",
    "-m repro.fault --campaign smoke -n 1024 --injections 40",
    "-m repro.fault --campaign keyswitch",
    "-m repro.fault --campaign keyswitch --audit",
    *(f"{_OBS} --workload {w}" for w in
      ("hmult", "hrot", "bootstrap", "keyswitch")),
    "-m repro.obs --validate-trace {tmp}/t.json",
    "-m repro.obs --sentinel --report {tmp}/s.json",
    "-m repro.obs --validate-envelope {tmp}/s.json",
    "-m repro.obs --validate-envelope BENCH_serve.json",
    "-m repro.serve --bench --requests 20000 --out {tmp}/b.json",
    "-m repro.obs --validate-envelope {tmp}/b.json",
    "-m repro.serve --chaos",
    "-m repro.serve --chaos --executor ckks --requests 120 "
    "--min-injections 30",
    "-m repro.obs --validate-envelope BENCH_recover.json",
    *(f"-m repro.recover --campaign --executor {e} --injections 24 "
      f"--json {{tmp}}/r.json" for e in ("ckks", "bgv")),
    "-m repro.analysis --json",
    "tools/check_tables.py",
    *(f"examples/{p.name}" for p in sorted((ROOT / "examples").glob("*.py"))),
    *(f"-m repro.cli {c}" for c in ("table2", "table3", "table4", "verify",
                                    "chip", "controls", "breakdown",
                                    "motivation")),
    *(f"{_E2E} --workload {w} --trace {t}" for w in _WORKLOADS
      for t in (0, 1)),
]

# Run in the child as ``python -c _TRACER LOG ENTRY...``: log every new
# code object under PACKAGE on its first call, one flushed line each, so
# a SIGKILLed or forked child loses nothing and repeats nothing.
_TRACER = """
import runpy, sys, threading
log, package, argv = open(sys.argv[1], "a", buffering=1), sys.argv[2], sys.argv[3:]
seen = set()
def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code not in seen:
        seen.add(code)
        if code.co_filename.startswith(package):
            log.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")
sys.setprofile(profile)
threading.setprofile(profile)
if argv[0] == "-c":
    sys.argv = ["-c", *argv[2:]]
    exec(compile(argv[1], "<string>", "exec"), {"__name__": "__main__"})
elif argv[0] == "-m":
    sys.argv = argv[1:]
    runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
else:
    sys.argv = argv
    sys.path.insert(0, argv[0].rpartition("/")[0] or ".")
    runpy.run_path(argv[0], run_name="__main__")
"""


def function_spans(path: Path) -> list[tuple[int, int]]:
    """(first, last) line of every function not nested in another one;
    the first line is the first decorator's."""
    spans = []
    todo = list(ast.parse(path.read_text()).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            spans.append((first, node.end_lineno))
        else:
            todo.extend(ast.iter_child_nodes(node))
    return sorted(spans)


def measure(package: Path, reached: set[tuple[str, int]],
            allowed: dict[str, str]) -> tuple[list, list[str]]:
    """Per module ``(name, reached lines, function lines)``, and the
    problems: an unreached module not in ``allowed``, and an ``allowed``
    entry that is reached or has no function lines."""
    rows, problems = [], []
    for path in sorted(package.rglob("*.py")):
        name = path.relative_to(package).as_posix()
        starts = {line for file, line in reached if file == str(path)}
        spans = function_spans(path)
        hit = sum(b - a + 1 for a, b in spans
                  if any(a <= s <= b for s in starts))
        total = sum(b - a + 1 for a, b in spans)
        rows.append((name, hit, total))
        if total and not hit and name not in allowed:
            problems.append(f"{name}: {total} function lines, none reached")
        if name in allowed and (hit or not total):
            problems.append(f"{name}: allow-listed but "
                            f"{'reached' if hit else 'has no functions'}")
    problems += [f"{name}: allow-listed but missing" for name in allowed
                 if not (package / name).is_file()]
    return rows, problems


def run_entries(log: Path, tmp: str) -> list[str]:
    """Run every entry under the tracer; the commands that failed, each
    with the tail of its stdout and of its stderr."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    failed = []
    for entry in ENTRIES:
        start = time.perf_counter()
        argv = shlex.split(entry.format(tmp=tmp))
        done = subprocess.run(
            [sys.executable, "-c", _TRACER, str(log), str(PACKAGE), *argv],
            cwd=ROOT, env=env, capture_output=True, text=True)
        print(f"[{time.perf_counter() - start:5.1f} s] exit "
              f"{done.returncode}: {' '.join(argv)[:90]}", flush=True)
        if done.returncode:
            tails = (done.stdout.strip()[-300:], done.stderr.strip()[-300:])
            failed.append(f"{entry}: {' | '.join(filter(None, tails))}")
    return failed


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        log = Path(tmp) / "reached.tsv"
        log.touch()
        failed = run_entries(log, tmp)
        reached = {(file, int(line)) for file, line in
                   (row.split("\t") for row in log.read_text().splitlines())}
    rows, problems = measure(PACKAGE, reached, ALLOWED)
    for name, hit, total in rows:
        if total:
            print(f"{100 * hit / total:6.1f} % {hit:5d} / {total:5d}  {name}")
    hit, total = (sum(r[i] for r in rows) for i in (1, 2))
    print(f"reached {hit} of {total} function lines "
          f"({100 * hit / total:.1f} %) from {len(ENTRIES)} entry points")
    for entry in failed:
        print(f"note: entry exited non-zero: {entry}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
