"""The ``fhecheck`` command line: ``python -m repro.analysis``.

Four sections, all run by default:

* ``dataflow`` — compile every micro-program of the toy workload (the
  forward and inverse negacyclic NTT, the rotation and conjugation
  automorphisms the keyswitch tests exercise), lower each on a VPU and
  report its register and memory demands with
  :func:`repro.analysis.dataflow.analyze_dataflow` (facts, no findings;
  a program the unit refuses raises).
* ``resources`` — replay the canonical keyswitch/NTT/automorphism
  staging schedules against the SRAM/DRAM models with
  :func:`repro.analysis.resources.analyze_staged_plan`.
* ``ctstate`` — abstractly interpret the canonical CKKS/BGV/BFV op
  sequences with :func:`repro.analysis.ctstate.check_sequence`.
* ``lint`` — run the repository AST rules over ``src/repro``.

Output: a status line per check and a summary, or with ``--json`` one
JSON report (``ok``, ``sections``, ``elapsed_s``, ``findings``).

Exit status (the CI contract, also documented in README/DESIGN):

* ``0`` — analysis ran and no error-severity finding fired (warnings,
  e.g. stale suppressions, do not gate);
* ``1`` — at least one error-severity finding;
* ``2`` — usage error (unknown section or flag; argparse's own exit).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:
    from repro.core.isa import Program

from repro.analysis.dataflow import analyze_dataflow
from repro.analysis.findings import Finding, Severity
from repro.analysis.lint import lint_paths

_SECTIONS = ("dataflow", "resources", "ctstate", "lint")


def _workload_programs(m: int) -> Iterator["Program"]:
    """Every micro-program a toy keyswitch dispatches, once each: the
    programs carry no prime, so one serves every limb."""
    from repro.automorphism.mapping import (
        galois_element_for_rotation,
        galois_eval_permutation,
    )
    from repro.fhe.params import toy_params
    from repro.mapping import compile_automorphism
    from repro.mapping.ntt import (
        compile_negacyclic_intt,
        compile_negacyclic_ntt,
    )

    n = toy_params().n
    # Per digit, a keyswitch is a batch of forward NTTs over every limb,
    # the accumulation and inverse NTTs; a rotation adds its automorphism.
    yield compile_negacyclic_ntt(n, m)
    yield compile_negacyclic_intt(n, m)
    for galois_k in (galois_element_for_rotation(n, 1), 2 * n - 1):
        yield compile_automorphism(galois_eval_permutation(n, galois_k), m)


def _book(report: Any, text: str, verbose: bool, findings: list[Finding],
          lines: list[str]) -> None:
    """Book one report: its findings, its status line, and — when
    verbose or failing — each finding under it."""
    findings.extend(report.findings)
    lines.append(f"[{'ok ' if report.ok else 'FAIL'}] {text}")
    if verbose or not report.ok:
        lines += [f"    {f}" for f in report.findings]


def _dataflow_facts(m: int) -> tuple[list[Finding], list[str]]:
    """The def-use demands of the workload's micro-programs."""
    lines = []
    for program in _workload_programs(m):
        report = analyze_dataflow(program, m=m)
        lines.append(f"[ok ] dataflow {report.label:44s} "
                     f"{report.instructions:5d} instrs, "
                     f"{report.registers_written:3d} regs, "
                     f"{report.dead_at_exit} dead at exit")
    return [], lines


def _check_resources(verbose: bool) -> tuple[list[Finding], list[str]]:
    """Replay the canonical staging schedules against the SRAM model."""
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
    for plan in plans:
        report = analyze_staged_plan(plan)
        _book(report, f"staged {report.label:32s} peak "
              f"{report.peak_words * 8 // 1024:5d} KiB of "
              f"{report.capacity_words * 8 // 1024} KiB, dram "
              f"{report.dram_words * 8 // 1024} KiB "
              f"({report.dram_ns:.0f} ns)", verbose, findings, lines)
    return findings, lines


def _check_ctstate(verbose: bool) -> tuple[list[Finding], list[str]]:
    """Abstractly interpret the canonical scheme op sequences."""
    from repro.analysis.ctstate import (
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
    return findings, lines


def _check_lint(root: Path, verbose: bool) -> tuple[list[Finding], list[str]]:
    findings = lint_paths([root])
    lines = [f"[{'ok ' if not findings else 'FAIL'}] lint over {root}: "
             f"{len(findings)} finding(s)"]
    lines += [f"    {f}" for f in findings]
    return findings, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="fhecheck: the dataflow facts of the VPU "
                    "micro-programs, resource and ciphertext-state "
                    "verification of the staging plans and scheme op "
                    "sequences, plus the repository lint rules.")
    parser.add_argument("sections", nargs="*", metavar="section",
                        default=[],
                        help=f"which sections to run: {', '.join(_SECTIONS)} "
                             f"(default: all)")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON report instead of the text "
                             "summary")
    parser.add_argument("--lint-root", default=None,
                        help="directory to lint (default: the installed "
                             "repro package source)")
    parser.add_argument("-m", "--lanes", type=int, default=16,
                        help="VPU lane count of the dataflow programs")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print every finding, not just failures")
    args = parser.parse_args(argv)

    sections = args.sections or list(_SECTIONS)
    unknown = [s for s in sections if s not in _SECTIONS]
    if unknown:
        parser.error(f"unknown section(s) {unknown}; "
                     f"choose from {', '.join(_SECTIONS)}")

    started = time.perf_counter()
    findings: list[Finding] = []
    lines: list[str] = []
    root = (Path(args.lint_root) if args.lint_root
            else Path(__file__).resolve().parents[1])
    passes = {
        "dataflow": lambda: _dataflow_facts(args.lanes),
        "resources": lambda: _check_resources(args.verbose),
        "ctstate": lambda: _check_ctstate(args.verbose),
        "lint": lambda: _check_lint(root, args.verbose),
    }
    for section in _SECTIONS:
        if section in sections:
            f, out = passes[section]()
            findings += f
            lines += out

    errors = [f for f in findings if f.severity is Severity.ERROR]
    elapsed = time.perf_counter() - started
    if args.json:
        print(json.dumps({
            "ok": not errors,
            "sections": sections,
            "elapsed_s": round(elapsed, 3),
            "findings": [f.to_dict() for f in findings],
        }, indent=2))
    else:
        verdict = "clean" if not errors else f"{len(errors)} error(s)"
        print("\n".join(lines))
        print(f"fhecheck: {verdict} across {', '.join(sections)} "
              f"in {elapsed:.2f}s")
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
