"""The kill campaign: seeded SIGKILL injection against the durable
executor, with every run judged against an uninterrupted golden.

Protocol per injection (mirroring the one-fault-per-run discipline of
:mod:`repro.fault.campaign`, but at process granularity):

1. **fork** a worker; the child installs a :class:`CrashInjector` with
   one seeded :class:`CrashSpec` — either ``op_boundary`` (SIGKILL
   between two journaled ops) or ``wal_mid_record`` (SIGKILL halfway
   through a WAL append, leaving a torn record) — then runs the
   workload through :class:`DurableExecutor.run` and dies by its own
   SIGKILL.  The parent confirms the child actually died by signal.
2. **fork** a second worker with *no* crash hook; it rebuilds the
   context (deterministic keygen) and calls
   :meth:`DurableExecutor.resume`, writing its outcome (outputs digest,
   typed findings, resume stats) to a result file before ``os._exit``.
3. the parent classifies:

   * ``recovered_bit_identical`` — outputs digest equals the golden's
     and the journal tail was whole;
   * ``detected_torn`` — outputs digest equals the golden's *and* the
     resume surfaced the ``torn_tail`` finding (the torn write was
     detected, truncated, and survived);
   * ``failed`` — the resume crashed, raised, or produced different
     outputs.  A wrong digest with a clean exit is additionally marked
     a **silent divergence** — the one outcome the whole subsystem
     exists to make impossible, and the one that fails CI.

Forked children never return into the parent's interpreter: they leave
via SIGKILL or ``os._exit``, so pytest/atexit machinery runs exactly
once.
"""

from __future__ import annotations

import json
import os
import random
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.analysis.ctstate import (bgv_mult_switch_sequence,
                                    ckks_mult_rotate_sequence)
from repro.fault.crash import (SITE_OP_BOUNDARY, SITE_WAL_MID_RECORD,
                               CrashInjector, CrashSpec, install_crash_hook)
from repro.fhe.bgv import BgvContext, BgvParams
from repro.fhe.ckks import CkksContext
from repro.fhe.params import toy_params
from repro.fhe.program import Op, feed_count
from repro.recover.executor import DurableExecutor, golden_outputs_digest

__all__ = [
    "CLASSIFICATIONS", "EXECUTORS", "CrashRun", "KillCampaignResult",
    "Workload", "build_workload", "run_campaign", "recovery_latency_sweep",
]

CLASS_RECOVERED = "recovered_bit_identical"
CLASS_DETECTED_TORN = "detected_torn"
CLASS_FAILED = "failed"
CLASSIFICATIONS = (CLASS_RECOVERED, CLASS_DETECTED_TORN, CLASS_FAILED)

#: The recover workload executors the campaign sweeps, each as (context
#: class, parameter factory, base sequence, one input array from a
#: generator).
_WORKLOADS: dict[str, tuple[Any, ...]] = {
    "ckks": (CkksContext, toy_params, ckks_mult_rotate_sequence,
             lambda rng, params: rng.standard_normal(params.n // 2)),
    "bgv": (BgvContext,
            lambda: BgvParams(n=256, levels=3, plaintext_modulus=65537,
                              prime_bits=30),
            bgv_mult_switch_sequence,
            lambda rng, params: rng.integers(0, params.plaintext_modulus,
                                             size=params.n)),
}
EXECUTORS = tuple(_WORKLOADS)

_KEY_SEED = 2025
_INPUT_SEED = 7
_RUN_SEED = 42


@dataclass
class Workload:
    """One campaign executor: a context factory plus a recorded run."""

    name: str
    make_ctx: Callable[[], Any]
    ops: list[Op]
    inputs: list[Any]
    run_seed: int = _RUN_SEED

    def executor(self, directory: Path, *,
                 checkpoint_interval: int = 4) -> DurableExecutor:
        return DurableExecutor(self.make_ctx(), self.ops, self.inputs,
                               directory,
                               checkpoint_interval=checkpoint_interval,
                               run_seed=self.run_seed,
                               label=f"recover-{self.name}")

    def golden(self) -> str:
        return golden_outputs_digest(self.make_ctx(), self.ops, self.inputs,
                                     run_seed=self.run_seed,
                                     label=f"golden-{self.name}")


def build_workload(name: str) -> Workload:
    """The named campaign executor (``ckks`` or ``bgv``).

    Both rebuild their context deterministically from a fixed key seed
    — exactly what a restarted service does when it reloads key
    material — so resume operates against bit-identical keys.
    """
    if name not in _WORKLOADS:
        raise ValueError(f"unknown campaign executor {name!r}; "
                         f"choose from {EXECUTORS}")
    context, make_params, base_sequence, sample = _WORKLOADS[name]
    params = make_params()

    def make_ctx() -> Any:
        ctx = context(params, seed=_KEY_SEED)
        ctx.generate_galois_keys([1])
        return ctx

    ops = base_sequence(params.levels)
    ops = ops + [Op("add", (len(ops) - 1, len(ops) - 1)),
                 Op("rotate", (len(ops),), arg=1)]
    rng = np.random.default_rng(_INPUT_SEED)
    inputs = [sample(rng, params).tolist() for _ in range(feed_count(ops))]
    return Workload(name, make_ctx, ops, inputs)


@dataclass
class CrashRun:
    """One seeded crash + resume, classified."""

    executor: str
    site: str
    at: int
    classification: str
    crashed: bool
    silent_divergence: bool = False
    findings: list[str] = field(default_factory=list)
    resumed_from: int = -1
    replayed_ops: int = 0
    error: str = ""

    def to_json(self) -> dict:
        return {
            "executor": self.executor, "site": self.site, "at": self.at,
            "classification": self.classification, "crashed": self.crashed,
            "silent_divergence": self.silent_divergence,
            "findings": self.findings, "resumed_from": self.resumed_from,
            "replayed_ops": self.replayed_ops, "error": self.error,
        }


@dataclass
class KillCampaignResult:
    """Aggregate campaign outcome; ``ok`` is the CI gate."""

    runs: list[CrashRun] = field(default_factory=list)
    goldens: dict[str, str] = field(default_factory=dict)

    @property
    def counts(self) -> dict[str, int]:
        out = {name: 0 for name in CLASSIFICATIONS}
        for run in self.runs:
            out[run.classification] += 1
        return out

    @property
    def silent_divergences(self) -> int:
        return sum(1 for run in self.runs if run.silent_divergence)

    @property
    def ok(self) -> bool:
        return (bool(self.runs) and self.silent_divergences == 0
                and self.counts[CLASS_FAILED] == 0)

    def to_json(self) -> dict:
        return {
            "injections": len(self.runs),
            "counts": self.counts,
            "silent_divergences": self.silent_divergences,
            "ok": self.ok,
            "goldens": self.goldens,
            "runs": [run.to_json() for run in self.runs],
        }


def _wait_killed(pid: int) -> "tuple[bool, int]":
    """(died_by_sigkill, exit_status) for a forked child."""
    _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        return os.WTERMSIG(status) == signal.SIGKILL, -os.WTERMSIG(status)
    return False, os.WIFEXITED(status) and os.WEXITSTATUS(status) or 0


def _fork_crash_worker(workload: Workload, directory: Path,
                       spec: CrashSpec, *,
                       checkpoint_interval: int) -> bool:
    """Fork, run the workload under the crash spec, confirm the kill.

    Returns True when the child died by SIGKILL (the seeded crash
    fired); False when it ran to completion (spec beyond the run's
    occurrence count — still a valid, crash-free journal)."""
    pid = os.fork()
    if pid == 0:
        # Child: one seeded crash, then die.  Never return to the
        # caller's interpreter — SIGKILL or os._exit only.
        try:
            install_crash_hook(CrashInjector([spec]))
            workload.executor(
                directory,
                checkpoint_interval=checkpoint_interval).run()
            os._exit(0)  # spec never fired; run committed
        except BaseException:
            os._exit(3)
    killed, _ = _wait_killed(pid)
    return killed


def _fork_resume_worker(workload: Workload, directory: Path,
                        result_path: Path, *,
                        checkpoint_interval: int) -> int:
    """Fork a clean worker that resumes and reports; returns its exit
    status (0 = resume completed and wrote its report)."""
    pid = os.fork()
    if pid == 0:
        try:
            report = workload.executor(
                directory,
                checkpoint_interval=checkpoint_interval).resume()
            payload = {
                "digest": report.outputs_digest,
                "findings": report.finding_kinds(),
                "resumed_from": report.resumed_from,
                "replayed_ops": report.replayed_ops,
                "committed": report.committed,
            }
            result_path.write_text(json.dumps(payload))
            os._exit(0)
        except BaseException as exc:  # noqa: BLE001 — crash report
            try:
                result_path.write_text(json.dumps(
                    {"error": f"{type(exc).__name__}: {exc}"}))
            except OSError:
                pass
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    return status


def _classify(run: CrashRun, payload: "dict | None", status: int,
              golden: str) -> None:
    if status != 0 or payload is None:
        run.classification = CLASS_FAILED
        run.error = (payload or {}).get("error", f"resume exit {status}")
        return
    run.findings = payload.get("findings", [])
    run.resumed_from = payload.get("resumed_from", -1)
    run.replayed_ops = payload.get("replayed_ops", 0)
    if payload.get("digest") == golden and payload.get("committed"):
        run.classification = (CLASS_DETECTED_TORN
                              if "torn_tail" in run.findings
                              else CLASS_RECOVERED)
        return
    run.classification = CLASS_FAILED
    # Wrong outputs with a clean exit: the divergence nobody caught.
    run.silent_divergence = True
    run.error = (f"outputs digest {payload.get('digest', '')[:12]}… != "
                 f"golden {golden[:12]}… with no error raised")


def run_campaign(*, executors: Sequence[str] = EXECUTORS,
                 injections: int = 100, seed: int = 0,
                 checkpoint_interval: int = 4,
                 progress: "Callable[[str], None] | None" = None,
                 ) -> KillCampaignResult:
    """SIGKILL the durable executor ``injections`` times; classify every
    resume.  Deterministic in ``seed``."""
    rng = random.Random(seed)
    result = KillCampaignResult()
    workloads = {name: build_workload(name) for name in executors}
    goldens = {name: wl.golden() for name, wl in workloads.items()}
    result.goldens = dict(goldens)
    for index in range(injections):
        name = list(workloads)[index % len(workloads)]
        workload = workloads[name]
        n_ops = len(workload.ops)
        # WAL appends in a whole run: BEGIN + one OP_DONE per op +
        # checkpoints + COMMIT.
        n_ckpts = (0 if checkpoint_interval <= 0 else
                   sum(1 for i in range(n_ops)
                       if (i + 1) % checkpoint_interval == 0
                       and i + 1 < n_ops))
        n_appends = 2 + n_ops + n_ckpts
        if index % 2 == 0:
            spec = CrashSpec(SITE_OP_BOUNDARY, rng.randrange(n_ops))
        else:
            spec = CrashSpec(SITE_WAL_MID_RECORD, rng.randrange(n_appends),
                             tear_fraction=rng.choice((0.25, 0.5, 0.9)))
        run = CrashRun(name, spec.site, spec.at, CLASS_FAILED,
                       crashed=False)
        with tempfile.TemporaryDirectory(prefix="recover-kill-") as tmp:
            directory = Path(tmp)
            run.crashed = _fork_crash_worker(
                workload, directory, spec,
                checkpoint_interval=checkpoint_interval)
            result_path = directory / "resume-result.json"
            status = _fork_resume_worker(
                workload, directory, result_path,
                checkpoint_interval=checkpoint_interval)
            payload = None
            if result_path.exists():
                try:
                    payload = json.loads(result_path.read_text())
                except json.JSONDecodeError:
                    payload = None
            _classify(run, payload, status, goldens[name])
        result.runs.append(run)
        if progress is not None and (index + 1) % 10 == 0:
            counts = result.counts
            progress(f"  [{index + 1}/{injections}] "
                     f"recovered={counts[CLASS_RECOVERED]} "
                     f"torn={counts[CLASS_DETECTED_TORN]} "
                     f"failed={counts[CLASS_FAILED]}")
    return result


def recovery_latency_sweep(*, executor: str = "ckks",
                           intervals: Sequence[int] = (0, 1, 2, 4, 8),
                           repeats: int = 3, seed: int = 0,
                           ) -> list[dict]:
    """Measure resume latency vs. checkpoint interval.

    For each interval, crash a forked worker at the last op boundary
    (maximum completed work) and time :meth:`DurableExecutor.resume` in
    the parent.  Interval 0 disables checkpoints entirely — the
    full-replay baseline the other rows are read against.
    """
    workload = build_workload(executor)
    golden = workload.golden()
    crash_at = len(workload.ops) - 1
    rows = []
    for interval in intervals:
        times = []
        replayed = skipped = 0
        for repeat in range(repeats):
            with tempfile.TemporaryDirectory(
                    prefix="recover-bench-") as tmp:
                directory = Path(tmp)
                killed = _fork_crash_worker(
                    workload, directory,
                    CrashSpec(SITE_OP_BOUNDARY, crash_at),
                    checkpoint_interval=interval)
                if not killed:
                    raise RuntimeError("bench worker failed to crash")
                t0 = time.perf_counter()
                report = workload.executor(
                    directory, checkpoint_interval=interval).resume()
                times.append(time.perf_counter() - t0)
                if report.outputs_digest != golden:
                    raise RuntimeError(
                        f"bench resume diverged at interval {interval}")
                replayed = report.replayed_ops
                skipped = report.skipped_ops
        rows.append({
            "executor": executor,
            "checkpoint_interval": interval,
            "ops": len(workload.ops),
            "crash_at": crash_at,
            "replayed_ops": replayed,
            "skipped_ops": skipped,
            "resume_ms_best": round(min(times) * 1e3, 3),
            "resume_ms_mean": round(sum(times) / len(times) * 1e3, 3),
        })
    return rows
