"""Workload profiler: ``python -m repro.obs``.

Profiles a named FHE workload on the behavioral VPU backend and emits
every exporter view at once::

    python -m repro.obs --workload keyswitch --quick
    python -m repro.obs --workload hmult --trace OBS_trace.json
    python -m repro.obs --validate-trace OBS_trace.json

Each profile runs the workload **three times** on fresh backends — once
with observability off, once with the tracer installed, and once with
the tracer installed *inside a bound request trace context*
(``begin_request``/``end_request``, the contextvar path the serving
layer rides) — and exits non-zero unless both traced runs are
bit-identical in output and integer-identical in model cycles (the
overhead-neutrality contract the instrumentation guards promise).  For
fully phase-covered workloads it additionally requires the per-phase
cycle attribution (decompose / NTT / inner-product / mod-down / ...) to
sum exactly to the backend's reported total cycles.

Artifacts: a Chrome ``trace_event`` JSON (Perfetto-loadable), a metrics
snapshot in the shared ``schema``/``bench``/``host`` envelope, and the
attribution table on stdout.

``python -m repro.obs --sentinel`` is the benchmark regression
sentinel instead (:mod:`repro.obs.sentinel`): validate every committed
``BENCH_*`` artifact, regenerate a quick working-tree candidate, and
exit non-zero on regression.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.obs import (Observer, cycle_attribution, install_obs_hook, request,
                       span)
from repro.obs.export import (
    format_attribution,
    metrics_snapshot,
    to_chrome_trace,
    validate_chrome_trace,
    validate_envelope,
)


# -- workloads ---------------------------------------------------------------


class _Workload:
    """One profiled workload: deterministic setup (numpy backend, no
    tracing) and a pure ``run`` replayed on fresh VPU backends; every
    VPU dispatch of ``run`` happens inside a phase span, so the
    attribution must reconcile exactly."""

    def __init__(self, quick: bool, seed: int):
        from repro.fhe.backend import NumpyBackend, use_backend

        self.quick = quick
        rng = np.random.default_rng(seed)
        with use_backend(NumpyBackend()):
            self.setup(rng)

    def setup(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    @staticmethod
    def fingerprint(out) -> bytes:
        """Canonical bytes of a run's output for bit-compare."""
        arrays = out if isinstance(out, (tuple, list)) else (out,)
        return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


class _KeyswitchWorkload(_Workload):
    """One full digit-decomposition keyswitch + ModDown — the paper's
    §II-A kernel mix, the four-phase attribution target."""

    name = "keyswitch"

    def setup(self, rng: np.random.Generator) -> None:
        from repro.fhe.keyswitch import generate_keyswitch_key
        from repro.fhe.params import small_params, toy_params
        from repro.fhe.rns import get_basis
        from repro.fhe.sampling import sample_uniform_poly

        self.params = toy_params() if self.quick else small_params()
        self.basis = get_basis(self.params.primes, self.params.special_prime)
        full = self.params.primes + (self.params.special_prime,)
        s_from = sample_uniform_poly(self.params.n, full, rng)
        s_to = sample_uniform_poly(self.params.n, full, rng)
        self.ksk = generate_keyswitch_key(self.params, s_from, s_to, rng)
        self.x = sample_uniform_poly(self.params.n, self.params.primes, rng)

    def run(self):
        from repro.fhe.keyswitch import apply_keyswitch, mod_down

        t0, t1 = apply_keyswitch(self.x, self.ksk, self.params)
        return (mod_down(t0, self.basis).residues,
                mod_down(t1, self.basis).residues)


class _CkksWorkload(_Workload):
    """Shared CKKS-context setup for the HMult/HRot/bootstrap shapes."""

    levels = 3
    rotations: "list[int]" = []

    def setup(self, rng: np.random.Generator) -> None:
        from repro.fhe.ckks import CkksContext
        from repro.fhe.params import CkksParams

        n = 256 if self.quick else 1024
        self.params = CkksParams(n=n, levels=self.levels, scale_bits=26,
                                 prime_bits=28)
        self.ctx = CkksContext(self.params, seed=2025)
        if self.rotations:
            self.ctx.generate_galois_keys(self.rotations)
        slots = self.params.slots
        self.ct_a = self.ctx.encrypt(rng.uniform(-1, 1, slots))
        self.ct_b = self.ctx.encrypt(rng.uniform(-1, 1, slots))

    @staticmethod
    def ct_fingerprint(ct) -> tuple:
        return tuple(p.residues.copy() for p in ct.parts)


class _HmultWorkload(_CkksWorkload):
    """HMult: tensor product + relinearization keyswitch + rescale."""

    name = "hmult"

    def run(self):
        return self.ct_fingerprint(self.ctx.multiply(self.ct_a, self.ct_b))


class _HrotWorkload(_CkksWorkload):
    """HRot: evaluation-domain automorphism + Galois keyswitch."""

    name = "hrot"
    rotations = [1]

    def run(self):
        return self.ct_fingerprint(self.ctx.rotate(self.ct_a, 1))


class _BootstrapWorkload(_CkksWorkload):
    """The bootstrapping-shaped pipeline (CoeffToSlot surrogate ->
    EvalMod surrogate -> SlotToCoeff surrogate) from
    ``examples/bootstrapping_pipeline.py`` at profiling scale.

    Set-up runs the pipeline once, so the context has encoded its
    plaintext constants and no pass encodes (an encode would land
    outside the named phases, and only in the first pass).
    """

    name = "bootstrap"
    levels = 6
    dim = 4

    def setup(self, rng: np.random.Generator) -> None:
        from repro.fhe.linear import required_rotations

        self.rotations = sorted(set(
            required_rotations(self.dim, bsgs=True)
            + required_rotations(self.dim)))
        super().setup(rng)
        forward = np.eye(self.dim)
        c, s = np.cos(0.7), np.sin(0.7)
        for i in range(0, self.dim - 1, 2):
            forward[i, i], forward[i, i + 1] = c, -s
            forward[i + 1, i], forward[i + 1, i + 1] = s, c
        self.forward = forward
        self.inverse = forward.T
        x = rng.uniform(-0.8, 0.8, self.dim)
        self.ct_a = self.ctx.encrypt(
            np.tile(x, self.params.slots // self.dim))
        self.run()

    def run(self):
        from repro.fhe.linear import encrypted_matvec_bsgs
        from repro.fhe.polyeval import evaluate_power_basis

        ct = encrypted_matvec_bsgs(self.ctx, self.ct_a, self.forward)
        ct = evaluate_power_basis(self.ctx, ct, [0.0, 1.2, 0.0, -0.15])
        ct = encrypted_matvec_bsgs(self.ctx, ct, self.inverse)
        return self.ct_fingerprint(ct)


_WORKLOADS = {cls.name: cls for cls in (
    _KeyswitchWorkload, _HmultWorkload, _HrotWorkload, _BootstrapWorkload)}


# -- the profiler ------------------------------------------------------------


def _run_pass(workload: _Workload, m: int, observer: Observer | None,
              in_request: bool = False):
    """One fresh-backend execution; returns (output, model cycles).

    With ``in_request`` the run happens inside a bound request trace
    context (``begin_request``/``end_request``) — the contextvar path
    every serve-layer request takes — so neutrality is proven for the
    stamped-span code path too, not just the bare tracer.
    """
    from repro.fhe.backend import VpuBackend, use_backend

    backend = VpuBackend(m=m)
    previous = install_obs_hook(observer)
    try:
        scope = request if in_request else span  # no-ops with no observer
        with use_backend(backend), scope(f"workload.{workload.name}",
                                         cat="workload", quick=workload.quick):
            out = workload.run()
    finally:
        install_obs_hook(previous)
    return out, backend.vpu.stats.cycles


def profile(workload: _Workload, m: int) -> dict:
    """Profile one workload: untraced baseline, traced replay, checks.

    Returns the result bundle the CLI serializes; ``ok`` is the gate CI
    enforces (bit-identical outputs, integer-identical cycles and
    exact per-phase reconciliation).
    """
    out_off, cycles_off = _run_pass(workload, m, None)
    observer = Observer()
    out_on, cycles_on = _run_pass(workload, m, observer)
    ctx_observer = Observer()
    out_ctx, cycles_ctx = _run_pass(workload, m, ctx_observer,
                                    in_request=True)

    fp_off = workload.fingerprint(out_off)
    bit_identical = fp_off == workload.fingerprint(out_on)
    phases = cycle_attribution(observer.tracer)
    phase_sum = sum(row["cycles"] for name, row in phases.items()
                    if name != "(unattributed)")
    unattributed = phases.get("(unattributed)", {}).get("cycles", 0)
    checks = {
        "bit_identical": bit_identical,
        "cycles_identical": cycles_on == cycles_off,
        "bit_identical_in_trace_context":
            fp_off == workload.fingerprint(out_ctx),
        "cycles_identical_in_trace_context": cycles_ctx == cycles_off,
        "phase_sum_matches_total": phase_sum + unattributed == cycles_on,
        "fully_attributed": unattributed == 0,
    }
    return {
        "workload": workload.name,
        "observer": observer,
        "cycles": {"off": cycles_off, "on": cycles_on,
                   "in_trace_context": cycles_ctx},
        "phases": phases,
        "phase_sum": phase_sum,
        "unattributed": unattributed,
        "checks": checks,
        "ok": all(checks.values()),
    }


# -- CLI ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Profile an FHE workload on the behavioral VPU: "
                    "Chrome trace + metrics snapshot + per-phase "
                    "cycle-attribution table.")
    parser.add_argument("--workload", choices=sorted(_WORKLOADS),
                        default="keyswitch", help="workload to profile")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: toy ring sizes")
    parser.add_argument("--m", type=int, default=16,
                        help="VPU lane count (default 16)")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--trace", metavar="PATH", default="OBS_trace.json",
                        help="Chrome trace_event output path")
    parser.add_argument("--metrics", metavar="PATH",
                        default="OBS_metrics.json",
                        help="metrics snapshot output path")
    parser.add_argument("--validate-trace", metavar="PATH", default=None,
                        help="validate an emitted trace JSON against the "
                             "trace_event shape and exit")
    parser.add_argument("--validate-envelope", metavar="PATH", default=None,
                        help="validate a BENCH_*/OBS_* artifact JSON "
                             "against the schema envelope and exit")
    parser.add_argument("--sentinel", action="store_true",
                        help="benchmark regression sentinel: validate the "
                             "committed BENCH_* artifacts, regenerate quick "
                             "candidates from the working tree, exit "
                             "non-zero on regression")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="with --sentinel: baseline artifact for a "
                             "full same-host comparison")
    parser.add_argument("--candidate", metavar="PATH", action="append",
                        default=None,
                        help="with --sentinel --baseline: candidate "
                             "artifact(s); repeat for best-of-group")
    parser.add_argument("--report", metavar="PATH",
                        default="SENTINEL_report.json",
                        help="sentinel report path "
                             "(default SENTINEL_report.json)")
    parser.add_argument("--no-regen", action="store_true",
                        help="with --sentinel: skip the working-tree "
                             "regeneration, validate envelopes only")
    return parser


def _validate(path: str) -> int:
    with open(path) as fh:
        obj = json.load(fh)
    problems = validate_chrome_trace(obj)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}")
        return 1
    events = sum(1 for e in obj["traceEvents"] if e.get("ph") == "X")
    print(f"{path}: valid trace_event JSON ({events} complete events)")
    return 0


def _validate_envelope(path: str) -> int:
    with open(path) as fh:
        obj = json.load(fh)
    problems = validate_envelope(obj)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}")
        return 1
    print(f"{path}: valid schema:{obj['schema']} envelope "
          f"(bench={obj['bench']!r})")
    return 0


def _sentinel(args) -> int:
    from pathlib import Path

    from repro.obs.export import host_envelope
    from repro.obs.sentinel import compare_files, run_sentinel

    if args.baseline is not None:
        candidates = [Path(p) for p in (args.candidate or [])]
        if not candidates:
            print("--baseline needs at least one --candidate")
            return 2
        checks = compare_files(Path(args.baseline), candidates)
        failed = [c for c in checks if not c.ok]
        for check in checks:
            mark = "PASS" if check.ok else "FAIL"
            print(f"{mark} {check.path} [{check.cls}]: {check.detail}")
        report = host_envelope("sentinel")
        report["ok"] = not failed
        report["artifacts"] = [{
            "file": str(args.baseline), "bench": "full-compare",
            "ok": not failed, "checks": [c.to_json() for c in checks],
        }]
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.report}")
        print("PASS" if not failed else f"FAIL ({len(failed)} regressions)")
        return 0 if not failed else 1
    result = run_sentinel(Path.cwd(), regen=not args.no_regen,
                          report_path=Path(args.report))
    print("PASS" if result.ok else "FAIL")
    return 0 if result.ok else 1


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.sentinel:
        return _sentinel(args)
    if args.validate_trace is not None:
        return _validate(args.validate_trace)
    if args.validate_envelope is not None:
        return _validate_envelope(args.validate_envelope)

    workload = _WORKLOADS[args.workload](quick=args.quick, seed=args.seed)
    result = profile(workload, args.m)
    observer: Observer = result["observer"]

    with open(args.trace, "w") as fh:
        json.dump(to_chrome_trace(observer.tracer,
                                  f"repro.obs:{args.workload}"), fh, indent=1)
    snapshot = metrics_snapshot(observer.metrics, bench="obs", extra={
        "workload": args.workload,
        "quick": args.quick,
        "m": args.m,
        "cycles": result["cycles"],
        "phases": result["phases"],
        "checks": result["checks"],
    })
    with open(args.metrics, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"workload={args.workload} quick={args.quick} m={args.m}")
    print(format_attribution(observer.tracer))
    cycles = result["cycles"]
    print(f"\nbackend cycles: off={cycles['off']} on={cycles['on']}")
    for name, passed in result["checks"].items():
        print(f"check {name}: {'ok' if passed else 'FAIL'}")
    print(f"trace written to {args.trace}")
    print(f"metrics written to {args.metrics}")
    return 0 if result["ok"] else 1
