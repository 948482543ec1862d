"""``fhecheck`` — static bound/overflow verification for the repository.

The lazy-reduction kernels (:mod:`repro.ntt.cooley_tukey`) and the fused
keyswitch accumulation (:mod:`repro.fhe.keyswitch`) earn their speed by
*postponing* modular reduction: intermediate lane values deliberately
exceed the modulus, and correctness rests on hand-derived inequalities
("``(log2(n)+1)*q**2 < 2**64``") that silently break when someone widens
a prime, adds a stage, or batches deeper.  This package machine-checks
those invariants instead of trusting comments:

* :mod:`repro.analysis.intervals` — the unsigned interval domain shared
  by every check (exact Python-int bounds, uint64 overflow detection,
  wraparound conditional-subtract semantics).
* :mod:`repro.analysis.program_check` — abstract interpretation of
  compiled VPU micro-programs (:class:`repro.core.isa.Program`),
  propagating per-lane value intervals through the VPU's lowered steps.
* :mod:`repro.analysis.stage_plans` — symbolic per-stage analysis of the
  numpy lazy-reduction kernels, mirroring them line by line.
* :mod:`repro.analysis.bounds` — the production gate API: the single
  source of truth the NTT/keyswitch fast paths query instead of
  hand-coded inequalities.
* :mod:`repro.analysis.dataflow` — def-use verification over the same
  lowered steps: uninitialized register reads, dead writes, routing that
  is not a permutation, diagonal-read WAR hazards, 2R1W port violations.
* :mod:`repro.analysis.resources` — symbolic SRAM/DRAM occupancy replay
  of staged accelerator plans: capacity overflow, use-after-evict,
  double-buffer conflicts.
* :mod:`repro.analysis.ctstate` — ciphertext-state abstract
  interpretation of recorded CKKS/BFV/BGV op sequences (level, scale,
  NTT/coeff domain, noise budget).  Its verdict is what the program
  executor (:class:`repro.fhe.program.ProgramExecutor`) is built from;
  :func:`~repro.analysis.ctstate.run_checked` composes the two.
* :mod:`repro.analysis.lint` — repository-specific AST lint rules
  (object-dtype leakage, unchecked ``astype`` narrowing, unreduced
  products under ``%``, lazy values escaping without a clamp, unchecked
  SRAM staging, stale suppressions).
* :mod:`repro.analysis.sarif` — SARIF 2.1.0 rendering of findings for
  GitHub code scanning, with an envelope validator CI runs.

Run everything with ``python -m repro.analysis`` (see
:mod:`repro.analysis.cli`); findings are machine-readable with
``--format json`` / ``--format sarif``.  Exit status: 0 clean, 1 when
any error-severity finding fired, 2 on usage errors.
"""

from __future__ import annotations

from repro.analysis.bounds import (
    barrett_w_ok,
    fold_ok,
    keyswitch_lazy_accumulate_ok,
    mul_fits_uint64,
    unclamped_dit_lane_bound,
    unclamped_dit_ok,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.intervals import U64_MAX, Interval, IntervalVec
from repro.analysis.stage_plans import (
    PlanReport,
    analyze_barrett_w,
    analyze_batched_forward,
    analyze_batched_inverse,
    analyze_dif_lazy,
    analyze_dit_lazy,
    analyze_dit_unclamped,
    analyze_fold,
    analyze_keyswitch_accumulate,
)

__all__ = [
    "U64_MAX",
    "CtState",
    "CtStateError",
    "CtStateReport",
    "DataflowReport",
    "Finding",
    "Interval",
    "IntervalVec",
    "Op",
    "PlanReport",
    "ProgramCheckReport",
    "ResourceReport",
    "Severity",
    "StagedPlan",
    "analyze_barrett_w",
    "analyze_batched_forward",
    "analyze_batched_inverse",
    "analyze_dif_lazy",
    "analyze_dit_lazy",
    "analyze_dit_unclamped",
    "analyze_fold",
    "analyze_keyswitch_accumulate",
    "analyze_staged_plan",
    "automorphism_staging_plan",
    "barrett_w_ok",
    "check_dataflow",
    "check_program",
    "check_sequence",
    "fold_ok",
    "keyswitch_lazy_accumulate_ok",
    "keyswitch_staging_plan",
    "mul_fits_uint64",
    "ntt_staging_plan",
    "run_checked",
    "to_sarif",
    "unclamped_dit_lane_bound",
    "unclamped_dit_ok",
    "validate_sarif",
]

#: PEP 562 lazy exports: name -> defining submodule.
_LAZY = {
    "ProgramCheckReport": "program_check",
    "ProgramVerificationError": "program_check",
    "check_program": "program_check",
    "DataflowReport": "dataflow",
    "check_dataflow": "dataflow",
    "ResourceReport": "resources",
    "StagedPlan": "resources",
    "analyze_staged_plan": "resources",
    "keyswitch_staging_plan": "resources",
    "ntt_staging_plan": "resources",
    "automorphism_staging_plan": "resources",
    "CtState": "ctstate",
    "CtStateError": "ctstate",
    "CtStateReport": "ctstate",
    "Op": "ctstate",
    "check_sequence": "ctstate",
    "run_checked": "ctstate",
    "to_sarif": "sarif",
    "validate_sarif": "sarif",
}


def __getattr__(name: str) -> object:
    """Load the heavier passes on first use (PEP 562).

    ``program_check``/``dataflow`` import :mod:`repro.core.vpu`, whose
    own import chain reaches back here through the NTT kernels' bounds
    gates (``core.stages -> repro.ntt -> cooley_tukey ->
    analysis.bounds``) — an eager import would be circular.  The same
    deferral keeps ``resources`` (accel models) and ``ctstate`` (fhe
    layer) off the hot kernel import path.  The interval/plan/gate API
    stays eager.
    """
    if name in _LAZY:
        import importlib

        module = importlib.import_module(f"repro.analysis.{_LAZY[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
