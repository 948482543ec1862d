"""The durable executor: journaled, checkpointed, crash-resumable
replay of recorded ciphertext-op sequences.

:class:`DurableExecutor` wraps the checked execution shape of
:func:`repro.analysis.ctstate.run_checked` with a durability contract:

* every completed op's output digest is journaled (``OP_DONE``) before
  the next op starts, so after a SIGKILL at any instant the journal
  names exactly the work that happened;
* every ``checkpoint_interval`` ops the live set is serialized through
  :mod:`repro.fhe.serialize` and committed with a ``CHECKPOINT`` record
  (archives fsync'd *before* the record — the record is the commit
  point);
* :meth:`resume` rebuilds the run from the journal: truncate the torn
  tail, re-verify the program with ``check_sequence``, validate the
  newest usable checkpoint (content digest + abstract-state agreement),
  re-execute the suffix, and *prove* bit-identity by comparing each
  replayed op's digest against the journaled one — a mismatch raises
  :class:`DivergenceError` rather than silently committing wrong
  outputs.

Bit-identical resume requires taming the one stateful ambient input:
the context's encryption RNG.  A context encrypts through
``self._rng``, whose state depends on how many encryptions came before
— which a resumed process cannot replay cheaply.  The executor
therefore derives a fresh seeded generator **per op** from
``(run_seed, op_index)``; fresh runs and resumed runs draw identical
randomness by construction, which the kill campaign then verifies
empirically a hundred crashes at a time.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro import obs
from repro.analysis.ctstate import (CtState, CtStateError, Op,
                                    check_sequence, execute_op, scheme_of)
from repro.fault.crash import SITE_OP_BOUNDARY, crash_point
from repro.fhe.serialize import ciphertext_digest
from repro.recover import checkpoint as ckpt
from repro.recover.journal import (RT_BEGIN, RT_CHECKPOINT, RT_COMMIT,
                                   RT_OP_DONE, JournalError, decode, encode)
from repro.recover.wal import WriteAheadLog

__all__ = ["DivergenceError", "DurableExecutor", "RecoveryReport",
           "ResumeFinding", "golden_outputs_digest", "outputs_digest"]

JOURNAL_NAME = "journal.wal"

#: Feed-consuming op kinds: each draws one entry from ``inputs``.
_FEED_KINDS = frozenset({"encrypt", "multiply_plain"})


class DivergenceError(RuntimeError):
    """A replayed op produced a different ciphertext than the journaled
    original — resume is NOT bit-identical.  Loud by design: the only
    unacceptable campaign outcome is this divergence going unnoticed."""


@dataclass(frozen=True)
class ResumeFinding:
    """One typed recovery observation.

    ``kind`` is one of ``torn_tail`` (WAL ended mid-record; tail
    truncated), ``corrupt_checkpoint`` (archive failed digest or
    abstract-state validation; fell back), ``stale_checkpoint``
    (checkpoint belongs to a different program; rejected).
    """

    kind: str
    detail: str


@dataclass
class RecoveryReport:
    """What a :meth:`DurableExecutor.run` / ``resume`` accomplished."""

    label: str
    scheme: str
    total_ops: int
    #: Checkpoint boundary resumed from (-1 = replayed from scratch).
    resumed_from: int = -1
    replayed_ops: int = 0
    skipped_ops: int = 0
    outputs_digest: str = ""
    committed: bool = False
    findings: list[ResumeFinding] = field(default_factory=list)

    def finding_kinds(self) -> list[str]:
        return [f.kind for f in self.findings]


def outputs_digest(ops: Sequence[Op], values: Sequence[Any]) -> str:
    """Combined digest over the run's sink values (its outputs)."""
    h = hashlib.sha256()
    for index in ckpt.sink_indices(ops):
        h.update(ciphertext_digest(values[index]).encode())
    return h.hexdigest()


def _reseed(ctx: Any, run_seed: int, op_index: int) -> None:
    """Pin the context's encryption randomness for one op.

    Derived from ``(run_seed, op_index)`` so a resumed process draws
    exactly the randomness the crashed one did — position in the
    sequence, not number of prior encryptions, determines the stream.
    """
    ctx._rng = np.random.default_rng((run_seed, op_index))


def golden_outputs_digest(ctx: Any, ops: Sequence[Op],
                          inputs: Sequence[Any], *, run_seed: int,
                          label: str = "golden") -> str:
    """Digest of an uninterrupted run under the durable RNG discipline.

    The campaign's ground truth: a resumed run is *bit-identical* iff
    its outputs digest equals this.
    """
    scheme = scheme_of(ctx)
    report = check_sequence(ops, ctx.params, scheme=scheme, label=label)
    if report.ok:
        values: list[Any] = []
        feed = iter(inputs)
        for index, op in enumerate(ops):
            _reseed(ctx, run_seed, index)
            values.append(execute_op(op, ctx, values, feed, scheme=scheme))
        return outputs_digest(ops, values)
    raise CtStateError(report)


def _op_to_json(op: Op) -> list:
    return [op.kind, list(op.srcs), op.arg, op.label]


def _op_from_json(row: Sequence[Any]) -> Op:
    kind, srcs, arg, label = row
    return Op(str(kind), tuple(srcs), arg, str(label))


def _inputs_to_json(inputs: Sequence[Any]) -> list:
    return [np.asarray(entry).tolist() for entry in inputs]


class DurableExecutor:
    """Run (or resume) one recorded sequence against one journal
    directory.

    The caller owns context construction — after a crash, keys must be
    regenerated deterministically (same seed) before resuming, exactly
    as a real service would reload its key material.
    """

    def __init__(self, ctx: Any, ops: Sequence[Op], inputs: Sequence[Any],
                 directory: str | Path, *, checkpoint_interval: int = 4,
                 run_seed: int = 0, label: str = "recover"):
        self.ctx = ctx
        self.ops = list(ops)
        self.inputs = list(inputs)
        self.directory = Path(directory)
        self.checkpoint_interval = int(checkpoint_interval)
        self.run_seed = int(run_seed)
        self.label = label
        self.scheme = scheme_of(ctx)

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    # -- fresh run ---------------------------------------------------------

    def run(self) -> RecoveryReport:
        """Execute from scratch, journaling as we go.

        Verifies the sequence with ``check_sequence`` first (the
        run_checked shape); raises :class:`CtStateError` on a bad
        program before any journal record is written.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        out = RecoveryReport(self.label, self.scheme, len(self.ops))
        with WriteAheadLog(self.journal_path) as wal:
            return self._fresh_under_wal(wal, out)

    # -- resume ------------------------------------------------------------

    def resume(self) -> RecoveryReport:
        """Rebuild the run from its journal after a crash.

        Torn tails, corrupt checkpoints, and stale checkpoints each
        surface as exactly one typed :class:`ResumeFinding`; silent
        divergence surfaces as a raised :class:`DivergenceError`.
        """
        # Under a serving request's bound trace the span carries that
        # request's trace_id, so the resume shows up inside its stitched
        # trace (trace_id 0 = standalone recovery).
        with obs.span("recover.resume", "recover"):
            obs.count("recover.resumes")
            return self._resume_inner()

    def _resume_inner(self) -> RecoveryReport:
        out = RecoveryReport(self.label, self.scheme, len(self.ops))
        wal, scanned = WriteAheadLog.open_clean(self.journal_path)
        if scanned.torn:
            out.findings.append(ResumeFinding(
                "torn_tail",
                f"journal ended mid-record at byte {scanned.valid_bytes} of "
                f"{scanned.total_bytes}; torn tail truncated"))
            obs.count("recover.torn_tails")
        with wal:
            begin, journaled, checkpoints, commit = self._parse(
                scanned.records)
            expected_digest = ckpt.ops_digest(self.ops, self.scheme)
            if begin is None:
                # The crash hit the very first append: nothing durable
                # happened, so this resume is a fresh run (keeping the
                # torn-tail finding if the BEGIN record itself tore).
                return self._fresh_under_wal(wal, out)
            if begin["ops_digest"] != expected_digest:
                raise JournalError(
                    "journal BEGIN record belongs to a different program "
                    f"({begin['ops_digest'][:12]}… != "
                    f"{expected_digest[:12]}…)")
            if commit is not None:
                # The crash happened after the commit point: the run is
                # already durable and nothing needs replaying.
                out.committed = True
                out.outputs_digest = commit["digest"]
                out.skipped_ops = len(self.ops)
                return out
            report = check_sequence(self.ops, self.ctx.params,
                                    scheme=self.scheme, label=self.label)
            if report.ok:
                values: list[Any] = [None] * len(self.ops)
                boundary = self._restore_checkpoint(
                    checkpoints, report.states, values, out)
                start = boundary + 1
                out.resumed_from = boundary
                out.skipped_ops = start
                with (obs.span("recover.replay", "recover", start=start)
                      if start > 0 else nullcontext()):
                    self._execute_range(wal, values, start, report.states,
                                        journaled=journaled, out=out)
                out.outputs_digest = outputs_digest(self.ops, values)
                wal.append(RT_COMMIT, encode({
                    "digest": out.outputs_digest,
                    "outputs": ckpt.sink_indices(self.ops),
                }))
                out.committed = True
                return out
            raise CtStateError(report)

    def _fresh_under_wal(self, wal: WriteAheadLog,
                         out: RecoveryReport) -> RecoveryReport:
        """Start over on an empty (or fully-torn) journal."""
        report = check_sequence(self.ops, self.ctx.params,
                                scheme=self.scheme, label=self.label)
        if report.ok:
            wal.append(RT_BEGIN, encode({
                "label": self.label,
                "scheme": self.scheme,
                "ops": [_op_to_json(op) for op in self.ops],
                "inputs": _inputs_to_json(self.inputs),
                "run_seed": self.run_seed,
                "checkpoint_interval": self.checkpoint_interval,
                "ops_digest": ckpt.ops_digest(self.ops, self.scheme),
            }))
            values: list[Any] = [None] * len(self.ops)
            self._execute_range(wal, values, 0, report.states,
                                journaled={}, out=out)
            out.outputs_digest = outputs_digest(self.ops, values)
            wal.append(RT_COMMIT, encode({
                "digest": out.outputs_digest,
                "outputs": ckpt.sink_indices(self.ops),
            }))
            out.committed = True
            return out
        raise CtStateError(report)

    # -- shared machinery --------------------------------------------------

    def _execute_range(self, wal: WriteAheadLog, values: list[Any],
                       start: int, states: Sequence["CtState | None"],
                       *, journaled: dict[int, str],
                       out: RecoveryReport) -> None:
        """Execute ops ``start..end``, journaling and checkpointing.

        Only ever called under a ``check_sequence`` verdict held by
        ``run``/``_resume_inner`` (the run_checked shape).
        """
        feed = iter(self.inputs)
        for index in range(start):
            if self.ops[index].kind in _FEED_KINDS:
                next(feed)  # consumed by the journaled prefix
        for index in range(start, len(self.ops)):
            crash_point(SITE_OP_BOUNDARY)
            op = self.ops[index]
            _reseed(self.ctx, self.run_seed, index)
            # _execute_range runs only under its caller's check_sequence
            # verdict (run/_resume_inner hold `report.ok`).
            # fhecheck: ok=FHC008 — verdict held by the calling frame
            value = execute_op(op, self.ctx, values, feed,
                               scheme=self.scheme)
            values[index] = value
            digest = ciphertext_digest(value)
            previous = journaled.get(index)
            if previous is not None and previous != digest:
                raise DivergenceError(
                    f"op {index} ({op.kind}) replayed to digest "
                    f"{digest[:12]}… but the journal recorded "
                    f"{previous[:12]}… — resume is not bit-identical")
            if previous is None:
                wal.append(RT_OP_DONE, encode({
                    "index": index, "digest": digest}))
            out.replayed_ops += 1
            obs.count("recover.ops_executed")
            if (self.checkpoint_interval > 0
                    and (index + 1) % self.checkpoint_interval == 0
                    and index + 1 < len(self.ops)):
                self._take_checkpoint(wal, values, index, states)

    def _take_checkpoint(self, wal: WriteAheadLog, values: list[Any],
                         boundary: int,
                         states: Sequence["CtState | None"]) -> None:
        with obs.span("recover.checkpoint", "recover", boundary=boundary):
            obs.count("recover.checkpoints")
            live = ckpt.live_set(self.ops, boundary)
            entries = ckpt.write_archives(self.directory, boundary, values,
                                          live, states)
            wal.append(RT_CHECKPOINT, encode({
                "boundary": boundary,
                "ops_digest": ckpt.ops_digest(self.ops, self.scheme),
                "entries": [{
                    "value": e.value_index,
                    "file": e.file_name,
                    "digest": e.digest,
                    "state": None if e.state is None else {
                        "level": e.state.level,
                        "scale_log2": e.state.scale_log2,
                        "domain": e.state.domain,
                        "size": e.state.size,
                    },
                } for e in entries],
            }))

    def _restore_checkpoint(self, checkpoints: list[dict],
                            states: Sequence["CtState | None"],
                            values: list[Any],
                            out: RecoveryReport) -> int:
        """Load the newest usable checkpoint into ``values``; returns
        its boundary (-1 when none is usable)."""
        expected_digest = ckpt.ops_digest(self.ops, self.scheme)
        for record in reversed(checkpoints):
            boundary = record["boundary"]
            if record["ops_digest"] != expected_digest:
                out.findings.append(ResumeFinding(
                    "stale_checkpoint",
                    f"checkpoint at op {boundary} was taken against a "
                    f"different program "
                    f"({record['ops_digest'][:12]}…); rejected"))
                continue
            try:
                loaded: list[tuple[int, Any]] = []
                for row in record["entries"]:
                    index = row["value"]
                    entry = ckpt.CheckpointEntry(
                        value_index=index,
                        file_name=row["file"],
                        digest=row["digest"],
                        # Validate against the interpreter's *fresh*
                        # prediction, not the journaled copy of it.
                        state=states[index] if index < len(states) else None,
                    )
                    loaded.append((index, ckpt.load_entry(self.directory,
                                                          entry)))
            except ckpt.CheckpointError as exc:
                out.findings.append(ResumeFinding(
                    "corrupt_checkpoint",
                    f"checkpoint at op {boundary} failed validation "
                    f"({exc}); falling back"))
                obs.count("recover.corrupt_checkpoints")
                continue
            for index, ct in loaded:
                values[index] = ct
            return boundary
        return -1

    @staticmethod
    def _parse(records) -> tuple["dict | None", dict[int, str], list[dict],
                                 "dict | None"]:
        """Split a scanned journal into (begin or None, op digests by
        index, checkpoint records in order, commit record or None)."""
        begin: "dict | None" = None
        journaled: dict[int, str] = {}
        checkpoints: list[dict] = []
        commit: "dict | None" = None
        for record in records:
            if record.rtype == RT_BEGIN:
                begin = decode(record)
            elif record.rtype == RT_OP_DONE:
                entry = decode(record)
                journaled[entry["index"]] = entry["digest"]
            elif record.rtype == RT_CHECKPOINT:
                checkpoints.append(decode(record))
            elif record.rtype == RT_COMMIT:
                commit = decode(record)
        return begin, journaled, checkpoints, commit
