"""The ``fhecheck`` command line: ``python -m repro.analysis``.

Six sections, all run by default:

* ``programs`` — compile every micro-program of the toy workload
  (forward/inverse negacyclic NTT for every chain + special prime, the
  rotation and conjugation automorphisms the keyswitch tests exercise)
  and interval-verify each with
  :func:`repro.analysis.program_check.check_program`.
* ``dataflow`` — def-use verify the same compiled and lowered programs
  with :func:`repro.analysis.dataflow.check_dataflow`: uninitialized
  register reads, dead writes, non-permutation routing, diagonal WAR
  hazards, 2R1W port violations.
* ``plans`` — symbolically verify the lazy-reduction stage plans of the
  host word regime (every modulus ``< 2**30``: the toy chain, the
  Shoup edge, and the edge at ``n = 2**16`` where the inverse falls
  back to clamped stages) plus the fused keyswitch accumulation for the
  toy parameter set, and confirm the unclamped-DIT gate agrees with the
  analysis on both sides of the boundary.
* ``resources`` — replay the canonical keyswitch/NTT/automorphism
  staging schedules against the SRAM/DRAM models with
  :func:`repro.analysis.resources.analyze_staged_plan`, and confirm the
  analysis refuses an undersized SRAM.
* ``ctstate`` — abstractly interpret the canonical CKKS/BGV/BFV op
  sequences with :func:`repro.analysis.ctstate.check_sequence`, and
  confirm the interpreter refuses a rescale-dropped mutation.
* ``lint`` — run the repository AST rules over ``src/repro``.

``--bench-shapes`` widens ``programs``/``dataflow`` to every compiled
program shape the benchmark suite exercises (``small_params`` NTT and
automorphism programs, the m=64 four-step NTT).

Output: ``--format json`` emits machine-readable findings,
``--format sarif`` a SARIF 2.1.0 log for GitHub code scanning
(``--output FILE`` writes either to a file and keeps the text summary
on stdout).  ``--validate-sarif FILE`` shape-checks an emitted
envelope instead of running the analysis.

Exit status (the CI contract, also documented in README/DESIGN):

* ``0`` — analysis ran and no error-severity finding fired (warnings,
  e.g. dead writes or stale suppressions, do not gate);
* ``1`` — at least one error-severity finding, or an invalid SARIF
  envelope under ``--validate-sarif``;
* ``2`` — usage error (unknown section or flag; argparse's own exit).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:
    from repro.core.isa import Program

from repro.analysis.findings import Finding, Severity
from repro.analysis.bounds import unclamped_dit_ok
from repro.analysis.dataflow import check_dataflow
from repro.analysis.lint import lint_paths
from repro.analysis.program_check import check_program
from repro.analysis.sarif import to_sarif, validate_sarif
from repro.analysis.stage_plans import (
    PlanReport,
    analyze_barrett_w,
    analyze_batched_forward,
    analyze_batched_inverse,
    analyze_dif_lazy,
    analyze_dit_lazy,
    analyze_fold,
    analyze_keyswitch_accumulate,
)

_SECTIONS = ("programs", "dataflow", "plans", "resources", "ctstate",
             "lint")


def _workload_programs(m: int, bench_shapes: bool) -> Iterator[
        "tuple[Program, int, int]"]:
    """``(program, q, m)`` for every compiled shape under verification.

    The toy workload covers every micro-program a toy keyswitch
    dispatches; ``bench_shapes`` adds the shapes the benchmark suite
    executes (``small_params`` at m=16 and the m=64 four-step NTT).
    """
    from repro.automorphism.mapping import (
        galois_element_for_rotation,
        galois_eval_permutation,
    )
    from repro.fhe.params import small_params, toy_params
    from repro.mapping import compile_automorphism, compile_ntt
    from repro.mapping.ntt import (
        compile_negacyclic_intt,
        compile_negacyclic_ntt,
    )

    param_sets = [(toy_params(), m)]
    if bench_shapes:
        param_sets.append((small_params(), m))
    for params, lanes in param_sets:
        n = params.n
        primes = params.primes + (params.special_prime,)
        # The keyswitch workload is, per digit, a batch of forward NTTs
        # over every limb plus the accumulation — so the forward and
        # inverse NTT programs for every prime of the full basis cover
        # every micro-program a keyswitch dispatches.
        # One program per kind serves every prime; each is verified under
        # every prime's binding.
        forward = compile_negacyclic_ntt(n, lanes)
        inverse = compile_negacyclic_intt(n, lanes)
        for q in primes:
            yield forward, q, lanes
            yield inverse, q, lanes
        # Rotation + conjugation automorphisms (modulus-independent
        # programs, verified under the widest modulus of the basis).
        for galois_k in (galois_element_for_rotation(n, 1), 2 * n - 1):
            perm = galois_eval_permutation(n, galois_k)
            yield compile_automorphism(perm, lanes), max(primes), lanes
    if bench_shapes:
        yield compile_ntt(4096, 64), 998244353, 64


def _book(report: Any, text: str, verbose: bool, findings: list[Finding],
          lines: list[str]) -> None:
    """Book one report: its findings, its status line, and — when
    verbose or failing — each finding under it."""
    findings.extend(report.findings)
    lines.append(f"[{'ok ' if report.ok else 'FAIL'}] {text}")
    if verbose or not report.ok:
        lines += [f"    {f}" for f in report.findings]


def _check_programs(workload: list, verbose: bool
                    ) -> tuple[list[Finding], list[str]]:
    """Interval-verify the workload's micro-programs."""
    findings: list[Finding] = []
    lines: list[str] = []
    for program, q, lanes in workload:
        report = check_program(program, q=q, m=lanes)
        _book(report, f"program {report.label:45s} q={report.q:<10d} "
              f"{report.instructions:5d} instrs, max intermediate "
              f"2^{report.max_intermediate.bit_length()}",
              verbose, findings, lines)
    return findings, lines


def _check_dataflow(workload: list, verbose: bool
                    ) -> tuple[list[Finding], list[str]]:
    """Def-use verify the same compiled micro-programs."""
    findings: list[Finding] = []
    lines: list[str] = []
    for program, _q, lanes in workload:
        report = check_dataflow(program, m=lanes)
        _book(report, f"dataflow {report.label:44s} "
              f"{report.instructions:5d} instrs, "
              f"{report.registers_written:3d} regs, "
              f"{report.dead_at_exit} dead at exit",
              verbose, findings, lines)
    return findings, lines


def _plan_regimes() -> Iterable[tuple[str, int, int]]:
    """(label, log_n, q) triples spanning the supported regimes."""
    from repro.arith.primes import find_ntt_prime
    from repro.fhe.params import toy_params

    params = toy_params()
    log_n = params.n.bit_length() - 1
    yield "toy chain max", log_n, max(params.primes + (params.special_prime,))
    n = params.n
    yield "shoup edge (just below 2^30)", log_n, find_ntt_prime(2 * n, 30)
    yield "clamped inverse (n = 2^16, just below 2^30)", 16, \
        find_ntt_prime(1 << 17, 30)


def _check_plans(verbose: bool) -> tuple[list[Finding], list[str]]:
    from repro.fhe.params import toy_params

    findings: list[Finding] = []
    lines: list[str] = []
    reports: list[tuple[str, PlanReport]] = []
    for label, log_n, q in _plan_regimes():
        reports.append((label, analyze_batched_forward(log_n, q)))
        # kernels.c: the butterflies and word reductions on 32-bit lanes.
        reports.append((label, analyze_dif_lazy(
            log_n, q, shoup=True, entry_hi=2 * q - 1, word_bits=32)))
        reports.append((label, analyze_dit_lazy(
            log_n, q, shoup=True, entry_hi=q - 1, word_bits=32)))
        reports.append((label, analyze_fold(q)))
        reports.append((label, analyze_barrett_w(q)))
        unclamped = unclamped_dit_ok(log_n, q)
        reports.append((label, analyze_batched_inverse(
            log_n, q, unclamped=unclamped)))
        # The gate must agree with the analysis on the rejected side too:
        # if the unclamped plan is refused, its analysis must say why.
        if not unclamped:
            refused = analyze_batched_inverse(log_n, q, unclamped=True)
            status = "ok " if not refused.ok else "FAIL"
            lines.append(f"[{status}] gate refuses unclamped DIT for "
                         f"q={q} (analysis agrees: {not refused.ok})")
            if refused.ok:
                findings.extend(refused.findings)
    params = toy_params()
    maxq = max(params.primes + (params.special_prime,))
    reports.append(("toy keyswitch", analyze_keyswitch_accumulate(
        params.levels, maxq, lazy=True)))
    for label, report in reports:
        lanes = f"u{report.word_bits}"
        _book(report, f"plan {report.name:28s} {lanes} ({label}) "
              f"q={report.q:<10d} "
              f"lane bound {report.stage_bounds[-1]}, max intermediate "
              f"2^{report.max_intermediate.bit_length()}",
              verbose, findings, lines)
    return findings, lines


def _check_resources(verbose: bool) -> tuple[list[Finding], list[str]]:
    """Replay the canonical staging schedules against the SRAM model."""
    from repro.accel.sram import OnChipSram
    from repro.analysis.resources import (
        analyze_staged_plan,
        automorphism_staging_plan,
        keyswitch_staging_plan,
        ntt_staging_plan,
    )
    from repro.fhe.params import default_params, toy_params

    findings: list[Finding] = []
    lines: list[str] = []
    toy, big = toy_params(), default_params()
    plans = [
        keyswitch_staging_plan(toy),
        keyswitch_staging_plan(big),
        ntt_staging_plan(toy.n, 16),
        ntt_staging_plan(big.n, 64),
        automorphism_staging_plan(big.n, big.levels + 1),
    ]
    reports = [analyze_staged_plan(plan) for plan in plans]
    for report in reports:
        _book(report, f"staged {report.label:32s} peak "
              f"{report.peak_words * 8 // 1024:5d} KiB of "
              f"{report.capacity_words * 8 // 1024} KiB, dram "
              f"{report.dram_words * 8 // 1024} KiB "
              f"({report.dram_ns:.0f} ns)", verbose, findings, lines)
    # Gate-agreement: an SRAM sized below the proven peak must be
    # refused — if the analysis verifies it anyway, that is a finding.
    big_report = reports[1]
    shrunk = OnChipSram(capacity_bytes=max(big_report.peak_words * 8 // 2, 8))
    refused = analyze_staged_plan(plans[1], shrunk)
    status = "ok " if not refused.ok else "FAIL"
    lines.append(f"[{status}] analysis refuses a half-peak SRAM for "
                 f"{refused.label} (agrees: {not refused.ok})")
    if refused.ok:
        findings.append(Finding(
            "resource", "R001", Severity.ERROR, refused.label,
            "undersized SRAM was not refused by the occupancy analysis"))
    return findings, lines


def _check_ctstate(verbose: bool) -> tuple[list[Finding], list[str]]:
    """Abstractly interpret the canonical scheme op sequences."""
    from repro.analysis.ctstate import (
        Op,
        bfv_mult_add_sequence,
        bgv_mult_switch_sequence,
        check_sequence,
        ckks_mult_rotate_sequence,
    )
    from repro.fhe.bgv import BgvParams
    from repro.fhe.params import default_params, toy_params

    findings: list[Finding] = []
    lines: list[str] = []
    bgv_params = BgvParams(n=256, levels=3, plaintext_modulus=65537,
                           prime_bits=30)
    cases = [
        ("ckks", toy_params(),
         ckks_mult_rotate_sequence(toy_params().levels)),
        ("ckks", default_params(),
         ckks_mult_rotate_sequence(default_params().levels)),
        ("bgv", bgv_params, bgv_mult_switch_sequence(3)),
        ("bfv", bgv_params, bfv_mult_add_sequence()),
    ]
    for scheme, params, ops in cases:
        n = getattr(params, "n", 0)
        report = check_sequence(ops, params, scheme=scheme,
                                label=f"{scheme} n={n} canonical")
        _book(report, f"ctstate {report.label:28s} {len(report.ops):3d} ops, "
              f"min budget {report.min_budget_bits:6.1f} bits",
              verbose, findings, lines)
    # Gate-agreement: dropping the first rescale of the toy pipeline
    # must be refused — a verifier that accepts it is broken.
    ops = ckks_mult_rotate_sequence(toy_params().levels)
    drop = next(i for i, op in enumerate(ops) if op.kind == "rescale")
    remap: dict[int, int] = {}
    mutated: list[Op] = []
    for index, op in enumerate(ops):
        if index == drop:
            remap[index] = remap.get(op.srcs[0], op.srcs[0])
            continue
        remap[index] = len(mutated)
        mutated.append(Op(op.kind,
                          tuple(remap.get(s, s) for s in op.srcs),
                          op.arg))
    refused = check_sequence(mutated, toy_params(),
                             label="ckks dropped-rescale")
    status = "ok " if not refused.ok else "FAIL"
    lines.append(f"[{status}] analysis refuses a dropped rescale "
                 f"(agrees: {not refused.ok})")
    if refused.ok:
        findings.append(Finding(
            "ctstate", "C002", Severity.ERROR, "ckks dropped-rescale",
            "rescale-dropped mutation was not refused by the abstract "
            "interpreter"))
    return findings, lines


def _check_lint(root: Path, verbose: bool) -> tuple[list[Finding], list[str]]:
    findings = lint_paths([root])
    lines = [f"[{'ok ' if not findings else 'FAIL'}] lint over {root}: "
             f"{len(findings)} finding(s)"]
    lines += [f"    {f}" for f in findings]
    return findings, lines


def _emit_gauges(findings: list[Finding], errors: list[Finding]) -> None:
    """Publish finding counts to the observability layer, if enabled."""
    from repro import obs

    obs.gauge("analysis.findings.total", len(findings))
    obs.gauge("analysis.findings.errors", len(errors))
    for source, count in sorted(Counter(f.source for f in findings).items()):
        obs.gauge(f"analysis.findings.{source}", count)


def _run_validate_sarif(path: str) -> int:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"sarif: cannot read {path}: {exc}")
        return 1
    problems = validate_sarif(payload)
    if problems:
        for problem in problems:
            print(f"sarif: {problem}")
        print(f"sarif: {path} INVALID ({len(problems)} problem(s))")
        return 1
    results = sum(len(run.get("results", []))
                  for run in payload.get("runs", []))
    print(f"sarif: {path} ok ({results} result(s))")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="fhecheck: static bound/overflow, dataflow, resource "
                    "and ciphertext-state verification for the "
                    "lazy-reduction kernels and VPU micro-programs.")
    parser.add_argument("sections", nargs="*", metavar="section",
                        default=[],
                        help=f"which sections to run: {', '.join(_SECTIONS)} "
                             f"(default: all)")
    parser.add_argument("--json", action="store_true",
                        help="shorthand for --format json")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="output format (default: text)")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write the json/sarif payload to FILE and "
                             "keep the text summary on stdout")
    parser.add_argument("--validate-sarif", metavar="FILE", default=None,
                        help="validate a SARIF envelope and exit "
                             "(no analysis run)")
    parser.add_argument("--bench-shapes", action="store_true",
                        help="also verify every compiled program shape "
                             "the benchmark suite exercises")
    parser.add_argument("--lint-root", default=None,
                        help="directory to lint (default: the installed "
                             "repro package source)")
    parser.add_argument("-m", "--lanes", type=int, default=16,
                        help="VPU lane count for program verification")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print every finding, not just failures")
    args = parser.parse_args(argv)

    if args.validate_sarif is not None:
        return _run_validate_sarif(args.validate_sarif)

    out_format = "json" if args.json else args.format
    sections = args.sections or list(_SECTIONS)
    unknown = [s for s in sections if s not in _SECTIONS]
    if unknown:
        parser.error(f"unknown section(s) {unknown}; "
                     f"choose from {', '.join(_SECTIONS)}")

    from repro.obs import enable_from_env
    enable_from_env()

    started = time.perf_counter()
    findings: list[Finding] = []
    lines: list[str] = []
    # Compiled once; the first pass keeps each program's lowered form on
    # it and the second walks that same object.
    workload = (list(_workload_programs(args.lanes, args.bench_shapes))
                if {"programs", "dataflow"} & set(sections) else [])
    root = (Path(args.lint_root) if args.lint_root
            else Path(__file__).resolve().parents[1])
    passes = {
        "programs": lambda: _check_programs(workload, args.verbose),
        "dataflow": lambda: _check_dataflow(workload, args.verbose),
        "plans": lambda: _check_plans(args.verbose),
        "resources": lambda: _check_resources(args.verbose),
        "ctstate": lambda: _check_ctstate(args.verbose),
        "lint": lambda: _check_lint(root, args.verbose),
    }
    for section in _SECTIONS:
        if section in sections:
            f, out = passes[section]()
            findings += f
            lines += out

    errors = [f for f in findings if f.severity.value == "error"]
    elapsed = time.perf_counter() - started
    _emit_gauges(findings, errors)

    if out_format == "json":
        payload = json.dumps({
            "ok": not errors,
            "sections": sections,
            "elapsed_s": round(elapsed, 3),
            "findings": [f.to_dict() for f in findings],
        }, indent=2)
    elif out_format == "sarif":
        payload = json.dumps(to_sarif(findings), indent=2)
    else:
        payload = None

    verdict = "clean" if not errors else f"{len(errors)} error(s)"
    summary = (f"fhecheck: {verdict} across {', '.join(sections)} "
               f"in {elapsed:.2f}s")
    if args.output is not None and payload is not None:
        Path(args.output).write_text(payload + "\n", encoding="utf-8")
        print("\n".join(lines))
        print(f"{summary} -> {args.output} ({out_format})")
    elif payload is not None:
        print(payload)
    else:
        print("\n".join(lines))
        print(summary)
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
