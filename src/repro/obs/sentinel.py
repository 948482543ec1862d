"""Benchmark regression sentinel over the committed ``BENCH_*`` artifacts.

Every benchmark in this repo writes a ``schema: 1`` JSON envelope
(:func:`repro.obs.export.host_envelope`) and commits it at the repo
root — ``BENCH_kernels.json``, ``BENCH_serve.json``, ``BENCH_faults.json``,
``BENCH_recover.json``.  Those files are the perf trajectory; nothing
was watching them.  The sentinel is that watcher: it loads each
committed envelope, regenerates a quick working-tree counterpart with a
pinned command, and compares the two under *noise-aware* thresholds,
exiting non-zero on regression so CI blocks the merge.

Noise model
-----------

Raw wall-clock numbers do not survive two realities: benchmarks are
noisy on shared runners, and the committed artifact was produced on a
different host (and often at a different scale — the committed serve
artifact is a 100k-request run; CI regenerates 6k).  The sentinel
therefore classifies every metric:

* **latency** / **throughput** — wall-clock dependent, only meaningful
  between runs of the *same* command on the *same* host.  Compared in
  *full* mode (``--baseline``/``--candidate`` pairs) with a relative
  tolerance; skipped in portable mode.
* **ratio** — dimensionless speedups (batched-vs-seed, compiled-vs-seed).
  These transfer across hosts, so portable mode enforces an absolute
  *floor* (a regression that erases the batching win fails anywhere);
  full mode additionally applies a relative tolerance to the baseline.
* **rate** — fractions with an absolute floor (e.g. live fault-detection
  rate >= 0.95) plus a small absolute full-mode tolerance.
* **exact** — values that must match the baseline bit-for-bit (seeded
  deterministic counts); full mode only, since portable regen runs at a
  different scale.
* **zero** — invariants that must be exactly zero in the candidate
  (silent divergences, serve errors); a missing key counts as zero.
* **bool_true** — invariant flags (bit-identity checks) that must be
  literally ``True`` in the candidate.

Against noise on a single host the sentinel reuses the benchmarks' own
best-of-N discipline at the artifact level: :func:`compare_envelopes`
accepts a *group* of candidate envelopes and scores each metric by the
best value in the group (min for lower-is-better, max for
higher-is-better), so one descheduled run cannot fail the gate.

Wildcard paths
--------------

Specs address metrics by dotted path; a ``*`` segment matches every key
of a dict (or every index of a list) present in the candidate group, so
``ntt.*.speedup`` covers whatever ring sizes the regen mode produced —
the quick kernel bench only emits ``n=1024``, the committed artifact
goes to 16384.  A wildcard spec that matches *nothing* in the candidate
is itself a failure (``min_matches``): a bench that silently stopped
emitting a section must not pass vacuously.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.obs.export import host_envelope, validate_envelope

__all__ = [
    "MetricSpec", "Check", "BENCH_SPECS", "ARTIFACTS", "REGEN_COMMANDS",
    "compare_envelopes", "compare_files", "regenerate", "run_sentinel",
]

#: Default relative tolerances per metric class (fraction of baseline).
CLASS_TOLERANCE = {
    "latency": 0.15,
    "throughput": 0.15,
    "ratio": 0.25,
    "rate": 0.05,
}

#: Classes where smaller is better (group score = min); all other
#: numeric classes take the max of the candidate group.
_LOWER_BETTER = {"latency"}


@dataclass(frozen=True)
class MetricSpec:
    """One metric the sentinel guards inside a benchmark envelope.

    ``path`` is dotted, with ``*`` wildcard segments.  ``portable``
    marks metrics that survive a host/scale change (checked in both
    modes); non-portable metrics are only checked in full mode.
    ``required`` specs must resolve in the candidate (wildcards must
    match at least ``min_matches`` paths); optional specs are skipped
    when absent — used for compiled-backend columns that legitimately
    vanish on hosts with no C compiler.
    """

    path: str
    cls: str
    tolerance: float | None = None
    floor: float | None = None
    portable: bool = True
    required: bool = True
    min_matches: int = 1

    @property
    def tol(self) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return CLASS_TOLERANCE.get(self.cls, 0.0)


@dataclass
class Check:
    """Outcome of one spec against one concrete path."""

    path: str
    cls: str
    ok: bool
    detail: str
    baseline: Any = None
    candidate: Any = None
    skipped: bool = False

    def to_json(self) -> dict:
        out: dict[str, Any] = {"path": self.path, "cls": self.cls,
                               "ok": self.ok, "detail": self.detail}
        if self.baseline is not None:
            out["baseline"] = self.baseline
        if self.candidate is not None:
            out["candidate"] = self.candidate
        if self.skipped:
            out["skipped"] = True
        return out


#: Committed artifact file -> bench name inside its envelope.
ARTIFACTS = {
    "BENCH_kernels.json": "kernel_batching",
    "BENCH_serve.json": "serve",
    "BENCH_faults.json": "faults",
    "BENCH_recover.json": "recover",
}

#: Pinned quick regeneration commands, one per bench.  ``{out}`` is the
#: candidate artifact path; commands run with cwd at the repo root and
#: ``PYTHONPATH=src`` inherited from the caller's environment.
REGEN_COMMANDS: dict[str, tuple[str, ...]] = {
    "kernel_batching": ("benchmarks/bench_kernel_batching.py",
                        "--quick", "--out", "{out}"),
    "serve": ("-m", "repro.serve", "--bench", "--requests", "6000",
              "--seed", "0", "--out", "{out}"),
    "faults": ("-m", "repro.fault", "--campaign", "smoke",
               "--json", "{out}"),
    "recover": ("-m", "repro.recover", "--bench", "--executor", "ckks",
                "--injections", "12", "--out", "{out}"),
}

BENCH_SPECS: dict[str, tuple[MetricSpec, ...]] = {
    "kernel_batching": (
        # Bit-identity across dispatch regimes is the bench's own gate;
        # the sentinel re-asserts it on every regen.
        MetricSpec("ntt.*.bit_identical", "bool_true"),
        MetricSpec("automorphism.*.bit_identical", "bool_true"),
        MetricSpec("keyswitch_small_params.bit_identical", "bool_true"),
        MetricSpec("keyswitch_small_params.backends_bit_identical",
                   "bool_true", required=False),
        # Speedup floors: losing the batching win is a regression on
        # any host.  Floors sit well under the committed values
        # (ntt 1.8-2.5x, automorphism 1.7-2.8x, keyswitch 4.0x) so
        # runner noise cannot trip them, but a collapse to ~1x does.
        MetricSpec("ntt.*.speedup", "ratio", floor=1.2),
        MetricSpec("automorphism.*.speedup", "ratio", floor=1.05),
        MetricSpec("keyswitch_small_params.speedup", "ratio", floor=2.0),
        # Compiled columns exist only when a JIT provider is available.
        MetricSpec("ntt.*.speedup_compiled", "ratio", floor=3.0,
                   required=False),
        MetricSpec("automorphism.*.speedup_compiled", "ratio", floor=1.5,
                   required=False),
        MetricSpec("keyswitch_small_params.speedup_compiled", "ratio",
                   floor=5.0, required=False),
        # The row-fused keyswitch slot against the same kernels phase
        # by phase (committed 1.5x at n=8192, one thread): it must not lose.
        MetricSpec("keyswitch_fused.bit_identical", "bool_true",
                   required=False),
        MetricSpec("keyswitch_fused.speedup_fused", "ratio", floor=1.1,
                   required=False),
        # The same keyswitch under ``detect``: the checked fused slot
        # against the phased checked path (committed 2.1x; 2.2x quick).
        MetricSpec("keyswitch_checked.bit_identical", "bool_true",
                   required=False),
        MetricSpec("keyswitch_checked.speedup_checked", "ratio", floor=1.3,
                   required=False),
        # The top-limb drop slot against the phased division on the same
        # batch kernels, both R row NTTs: committed 1.6x at n=8192, R=9
        # (one thread); 1.8x quick.  It must not lose.
        MetricSpec("drop_top_limb.bit_identical", "bool_true",
                   required=False),
        MetricSpec("drop_top_limb.speedup_fused", "ratio", floor=1.0,
                   required=False),
        # K = 8 rotations of one ciphertext hoisted through the
        # keyswitch_apply slot against 8 plain rotations: committed 2.0x
        # at n=8192, L=8; 1.85x quick (n=1024, where per-call glue
        # weighs more).
        MetricSpec("keyswitch_hoisted.bit_identical", "bool_true",
                   required=False),
        MetricSpec("keyswitch_hoisted.speedup_hoisted", "ratio", floor=1.2,
                   required=False),
        # Same-host wall clock, full mode only.
        MetricSpec("ntt.*.batched_s", "latency", portable=False),
        MetricSpec("automorphism.*.batched_s", "latency", portable=False),
        MetricSpec("keyswitch_small_params.batched_s", "latency",
                   portable=False),
        MetricSpec("keyswitch_small_params.compiled_s", "latency",
                   portable=False, required=False),
    ),
    "serve": (
        MetricSpec("engine.error", "zero"),
        MetricSpec("engine.integrity_failures", "zero"),
        MetricSpec("engine.degrade_steps", "zero"),
        MetricSpec("results.latency_s.p50", "latency", portable=False),
        MetricSpec("results.latency_s.p95", "latency", portable=False),
        MetricSpec("results.latency_s.p99", "latency", portable=False),
        MetricSpec("results.throughput_rps", "throughput", portable=False),
        MetricSpec("results.goodput_rps", "throughput", portable=False),
    ),
    "faults": (
        MetricSpec("detection_rate_live", "rate", floor=0.95),
        # No silent corruptions, ever — a missing key counts as zero.
        MetricSpec("outcomes.silent", "zero"),
        # Seeded campaigns are deterministic at a fixed scale; the
        # committed deep campaign and the smoke regen differ in size,
        # so exact counts are full-mode only.
        MetricSpec("injections", "exact", portable=False),
        MetricSpec("outcomes.detected", "exact", portable=False),
        MetricSpec("outcomes.corrected", "exact", portable=False),
    ),
    "recover": (
        MetricSpec("campaign.silent_divergences", "zero"),
        MetricSpec("campaign.counts.failed", "zero"),
        MetricSpec("campaign.ok", "bool_true"),
        MetricSpec("latency_sweep.*.resume_ms_best", "latency",
                   portable=False),
    ),
}


# -- path resolution ---------------------------------------------------------


def _walk(obj: Any, segments: Sequence[str],
          prefix: tuple[str, ...] = ()) -> Iterable[tuple[str, Any]]:
    """Yield ``(concrete_path, value)`` for every match of the dotted
    pattern, expanding ``*`` over dict keys and list indices."""
    if not segments:
        yield ".".join(prefix), obj
        return
    head, rest = segments[0], segments[1:]
    if head == "*":
        if isinstance(obj, dict):
            for key in sorted(obj):
                yield from _walk(obj[key], rest, prefix + (str(key),))
        elif isinstance(obj, list):
            for index, item in enumerate(obj):
                yield from _walk(item, rest, prefix + (str(index),))
        return
    if isinstance(obj, dict):
        if head in obj:
            yield from _walk(obj[head], rest, prefix + (head,))
    elif isinstance(obj, list):
        try:
            index = int(head)
        except ValueError:
            return
        if 0 <= index < len(obj):
            yield from _walk(obj[index], rest, prefix + (head,))


def _lookup(obj: Any, path: str) -> tuple[bool, Any]:
    matches = list(_walk(obj, path.split(".")))
    if not matches:
        return False, None
    return True, matches[0][1]


def _candidate_paths(spec: MetricSpec,
                     candidates: Sequence[dict]) -> list[str]:
    paths: set[str] = set()
    segments = spec.path.split(".")
    for envelope in candidates:
        paths.update(path for path, _ in _walk(envelope, segments))
    return sorted(paths)


def _group_value(spec: MetricSpec, path: str,
                 candidates: Sequence[dict]) -> tuple[bool, Any]:
    """Best value for ``path`` across the candidate group: min for
    lower-is-better classes, max for higher-is-better numeric classes,
    first present value otherwise."""
    values = []
    for envelope in candidates:
        present, value = _lookup(envelope, path)
        if present:
            values.append(value)
    if not values:
        return False, None
    if spec.cls in ("exact", "zero", "bool_true"):
        return True, values[0]
    numeric = [v for v in values
               if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if not numeric:
        return True, values[0]
    return True, (min(numeric) if spec.cls in _LOWER_BETTER
                  else max(numeric))


# -- comparison --------------------------------------------------------------


def _check_numeric(spec: MetricSpec, path: str, base: Any,
                   cand: Any, full: bool) -> Check:
    if not isinstance(cand, (int, float)) or isinstance(cand, bool):
        return Check(path, spec.cls, False,
                     f"candidate value is not numeric: {cand!r}",
                     baseline=base, candidate=cand)
    problems: list[str] = []
    if spec.floor is not None and cand < spec.floor:
        problems.append(f"below floor {spec.floor:g}")
    has_base = isinstance(base, (int, float)) and not isinstance(base, bool)
    if full and has_base:
        tol = spec.tol
        if spec.cls == "latency":
            if cand > base * (1.0 + tol):
                problems.append(
                    f"regressed {cand / base - 1.0:+.1%} vs baseline "
                    f"(tolerance +{tol:.0%})")
        elif spec.cls in ("throughput", "ratio"):
            if cand < base * (1.0 - tol):
                problems.append(
                    f"regressed {cand / base - 1.0:+.1%} vs baseline "
                    f"(tolerance -{tol:.0%})")
        elif spec.cls == "rate":
            if cand < base - tol:
                problems.append(
                    f"dropped {cand - base:+.4f} vs baseline "
                    f"(tolerance {tol:g} absolute)")
    if problems:
        return Check(path, spec.cls, False, "; ".join(problems),
                     baseline=base if has_base else None, candidate=cand)
    return Check(path, spec.cls, True, "ok",
                 baseline=base if has_base else None, candidate=cand)


def _check_one(spec: MetricSpec, path: str, base_present: bool, base: Any,
               cand_present: bool, cand: Any, full: bool) -> Check:
    if spec.cls == "zero":
        value = cand if cand_present else 0
        ok = value == 0 and not isinstance(value, bool)
        return Check(path, spec.cls, ok,
                     "ok" if ok else f"must be zero, got {value!r}",
                     candidate=value)
    if not cand_present or cand is None:
        if spec.required:
            return Check(path, spec.cls, False,
                         "missing from candidate", baseline=base)
        return Check(path, spec.cls, True, "absent (optional)",
                     skipped=True)
    if spec.cls == "bool_true":
        ok = cand is True
        return Check(path, spec.cls, ok,
                     "ok" if ok else f"must be true, got {cand!r}",
                     candidate=cand)
    if spec.cls == "exact":
        if not base_present:
            return Check(path, spec.cls, True,
                         "no baseline value (skipped)", candidate=cand,
                         skipped=True)
        ok = cand == base and type(cand) is type(base)
        return Check(path, spec.cls, ok,
                     "ok" if ok else "differs from baseline",
                     baseline=base, candidate=cand)
    return _check_numeric(spec, path, base if base_present else None,
                          cand, full)


def compare_envelopes(baseline: dict, candidates: Sequence[dict], *,
                      portable_only: bool = False,
                      specs: Sequence[MetricSpec] | None = None,
                      ) -> list[Check]:
    """Compare a candidate group against a baseline envelope.

    ``portable_only`` restricts the run to host/scale-independent specs
    (the CI regen mode); full mode additionally applies the relative
    latency/throughput/exact comparisons.  Returns every check
    performed; the run regressed iff any check has ``ok == False``.
    """
    bench = baseline.get("bench")
    if specs is None:
        if bench not in BENCH_SPECS:
            return [Check("bench", "meta", False,
                          f"no spec table for bench {bench!r}")]
        specs = BENCH_SPECS[bench]
    full = not portable_only
    checks: list[Check] = []
    for spec in specs:
        if portable_only and not spec.portable:
            continue
        paths = _candidate_paths(spec, candidates)
        if "*" in spec.path:
            # Wildcards must also cover whatever the baseline carries
            # for non-wildcard presence bookkeeping in full mode.
            if full:
                base_paths = {p for p, _ in
                              _walk(baseline, spec.path.split("."))}
                paths = sorted(set(paths) | base_paths)
        elif not paths:
            paths = [spec.path]
        evaluated = 0
        for path in paths:
            base_present, base = _lookup(baseline, path)
            cand_present, cand = _group_value(spec, path, candidates)
            check = _check_one(spec, path, base_present, base,
                               cand_present, cand, full)
            if not check.skipped:
                evaluated += 1
            checks.append(check)
        if spec.required and evaluated < spec.min_matches:
            checks.append(Check(
                spec.path, spec.cls, False,
                f"pattern resolved {evaluated} metric(s) in the "
                f"candidate, needs >= {spec.min_matches}"))
    return checks


def compare_files(baseline_path: Path,
                  candidate_paths: Sequence[Path], *,
                  portable_only: bool = False) -> list[Check]:
    """File-level wrapper: load JSON envelopes, validate their shape,
    then delegate to :func:`compare_envelopes`."""
    baseline = json.loads(Path(baseline_path).read_text())
    candidates = [json.loads(Path(p).read_text()) for p in candidate_paths]
    checks = [Check(f"envelope:{Path(baseline_path).name}", "meta", not ps,
                    "; ".join(ps) or "ok")
              for ps in [validate_envelope(baseline)]]
    for path, envelope in zip(candidate_paths, candidates):
        problems = validate_envelope(envelope)
        checks.append(Check(f"envelope:{Path(path).name}", "meta",
                            not problems, "; ".join(problems) or "ok"))
    checks.extend(compare_envelopes(baseline, candidates,
                                    portable_only=portable_only))
    return checks


# -- regeneration ------------------------------------------------------------


def regenerate(bench: str, out_path: Path, *,
               repo_root: Path, runner=subprocess.run) -> Check:
    """Run the pinned quick command for ``bench``, writing its artifact
    to ``out_path``.  Returns a meta check describing the run."""
    if bench not in REGEN_COMMANDS:
        return Check(f"regen:{bench}", "meta", False,
                     f"no regeneration command for bench {bench!r}")
    argv = [sys.executable] + [
        arg.format(out=out_path) for arg in REGEN_COMMANDS[bench]]
    proc = runner(argv, cwd=repo_root, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-6:]
        return Check(f"regen:{bench}", "meta", False,
                     f"exit {proc.returncode}: " + " | ".join(tail))
    if not Path(out_path).exists():
        return Check(f"regen:{bench}", "meta", False,
                     "command succeeded but wrote no artifact")
    return Check(f"regen:{bench}", "meta", True,
                 " ".join(argv[1:]))


@dataclass
class SentinelResult:
    """Aggregated sentinel outcome across all guarded artifacts."""

    ok: bool = True
    artifacts: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        out = host_envelope("sentinel")
        out["ok"] = self.ok
        out["artifacts"] = self.artifacts
        return out


def run_sentinel(repo_root: Path | None = None, *,
                 artifacts: Iterable[str] | None = None,
                 regen: bool = True,
                 report_path: Path | None = None,
                 log=print) -> SentinelResult:
    """The CI gate: for every committed ``BENCH_*`` artifact, validate
    its envelope, regenerate a quick candidate from the working tree,
    and compare under the portable spec set.  Writes
    ``SENTINEL_report.json`` when ``report_path`` is given."""
    root = Path(repo_root) if repo_root is not None else Path.cwd()
    result = SentinelResult()
    names = list(artifacts) if artifacts is not None else sorted(ARTIFACTS)
    for name in names:
        bench = ARTIFACTS.get(name)
        committed = root / name
        entry: dict[str, Any] = {"file": name, "bench": bench,
                                 "checks": [], "ok": True}
        result.artifacts.append(entry)
        if bench is None:
            entry["checks"].append(Check(name, "meta", False,
                                         "unknown artifact").to_json())
            entry["ok"] = False
            result.ok = False
            continue
        if not committed.exists():
            entry["checks"].append(Check(
                name, "meta", False,
                "committed artifact missing from repo root").to_json())
            entry["ok"] = False
            result.ok = False
            continue
        baseline = json.loads(committed.read_text())
        checks = [Check(f"envelope:{name}", "meta", not ps,
                        "; ".join(ps) or "ok")
                  for ps in [validate_envelope(baseline)]]
        if regen:
            log(f"[sentinel] regenerating {bench} ...")
            with tempfile.TemporaryDirectory(prefix="sentinel-") as tmp:
                out_path = Path(tmp) / f"candidate_{bench}.json"
                regen_check = regenerate(bench, out_path, repo_root=root)
                checks.append(regen_check)
                if regen_check.ok:
                    candidate = json.loads(out_path.read_text())
                    checks.extend(compare_envelopes(
                        baseline, [candidate], portable_only=True))
        entry["checks"] = [c.to_json() for c in checks]
        entry["ok"] = all(c.ok for c in checks)
        if not entry["ok"]:
            result.ok = False
        failed = [c for c in checks if not c.ok]
        log(f"[sentinel] {name}: "
            f"{'PASS' if entry['ok'] else 'FAIL'} "
            f"({len(checks)} checks, {len(failed)} failed)")
        for check in failed:
            log(f"  FAIL {check.path} [{check.cls}]: {check.detail}")
    if report_path is not None:
        Path(report_path).write_text(
            json.dumps(result.to_json(), indent=2) + "\n")
        log(f"[sentinel] wrote {report_path}")
    return result
