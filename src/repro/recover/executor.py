"""The durable executor: journaled, checkpointed, crash-resumable
replay of recorded ciphertext-op sequences.

:class:`DurableExecutor` drives the one program executor
(:class:`repro.fhe.program.ProgramExecutor`, which exists only for a
clean ``check_sequence`` verdict and a feed of the right length) under
a durability contract:

* every completed op's output digest is journaled (``OP_DONE``) before
  the next op starts, so after a SIGKILL at any instant the journal
  names exactly the work that happened;
* every ``checkpoint_interval`` ops the live set is serialized through
  :mod:`repro.fhe.serialize` and committed with a ``CHECKPOINT`` record
  (archives fsync'd *before* the record — the record is the commit
  point);
* :meth:`resume` rebuilds the run from the journal: truncate the torn
  tail, refuse a ``BEGIN`` record written for another program, run seed
  or feed, re-verify the program with ``check_sequence``, validate the
  newest usable checkpoint (content digest + abstract-state agreement),
  re-execute the suffix, and *prove* bit-identity by comparing each
  replayed op's digest against the journaled one — a mismatch raises
  :class:`DivergenceError` rather than silently committing wrong
  outputs.

Bit-identical resume requires taming the one stateful ambient input:
the context's encryption RNG.  A context encrypts through one
generator whose state depends on how many encryptions came before —
which a resumed process cannot replay cheaply.  The executor therefore
restarts it **per op** from ``(run_seed, op_index)``
(:meth:`repro.fhe.rlwe.RlweContext.reseed`); fresh runs and resumed
runs draw identical randomness by construction, which the kill campaign
then verifies empirically a hundred crashes at a time.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro import obs
from repro.analysis.ctstate import CtState, check_sequence
from repro.fault.crash import SITE_OP_BOUNDARY, crash_point
from repro.fhe.program import (Op, ProgramExecutor, live_set, op_to_row,
                               ops_digest, scheme_of, sink_indices)
from repro.fhe.serialize import ciphertext_digest
from repro.recover import checkpoint as ckpt
from repro.recover.journal import (RT_BEGIN, RT_CHECKPOINT, RT_COMMIT,
                                   RT_OP_DONE, JournalError, decode, encode)
from repro.recover.wal import WriteAheadLog

__all__ = ["DivergenceError", "DurableExecutor", "RecoveryReport",
           "ResumeFinding", "golden_outputs_digest", "outputs_digest"]

JOURNAL_NAME = "journal.wal"


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
    for index in sink_indices(ops):
        h.update(ciphertext_digest(values[index]).encode())
    return h.hexdigest()


def _reseed(ctx: Any, run_seed: int, op_index: int) -> None:
    """Pin the context's encryption randomness for one op.

    Derived from ``(run_seed, op_index)`` so a resumed process draws
    exactly the randomness the crashed one did — position in the
    sequence, not number of prior encryptions, determines the stream.
    """
    ctx.reseed((run_seed, op_index))


def golden_outputs_digest(ctx: Any, ops: Sequence[Op],
                          inputs: Sequence[Any], *, run_seed: int,
                          label: str = "golden") -> str:
    """Digest of an uninterrupted run under the durable RNG discipline.

    The campaign's ground truth: a resumed run is *bit-identical* iff
    its outputs digest equals this.
    """
    report = check_sequence(ops, ctx.params, scheme=scheme_of(ctx),
                            label=label)
    values = ProgramExecutor(report, ctx, inputs).run(
        before=lambda index: _reseed(ctx, run_seed, index))
    return outputs_digest(ops, values)


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
        self.ops_digest = ops_digest(self.ops, self.scheme)

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    # -- fresh run ---------------------------------------------------------

    def run(self) -> RecoveryReport:
        """Execute from scratch, journaling as we go.

        Raises :class:`CtStateError` (a program ``check_sequence``
        rejects) or :class:`ValueError` (a feed of the wrong length)
        before any journal record is written.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        out = RecoveryReport(self.label, self.scheme, len(self.ops))
        with WriteAheadLog(self.journal_path) as wal:
            return self._execute_and_commit(wal, out)

    # -- resume ------------------------------------------------------------

    def resume(self) -> RecoveryReport:
        """Rebuild the run from its journal after a crash.

        Torn tails, corrupt checkpoints, and stale checkpoints each
        surface as exactly one typed :class:`ResumeFinding`; silent
        divergence surfaces as a raised :class:`DivergenceError`; a
        journal begun for another program, run seed or feed raises
        :class:`JournalError`.
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
            if begin is None:
                # The crash hit the very first append: nothing durable
                # happened, so this resume is a fresh run (keeping the
                # torn-tail finding if the BEGIN record itself tore).
                return self._execute_and_commit(wal, out)
            for key, mine in self._identity().items():
                if begin[key] != mine:
                    raise JournalError(
                        f"journal BEGIN record belongs to a different run: "
                        f"its {key} is {str(begin[key])[:12]}…, this "
                        f"executor's is {str(mine)[:12]}…")
            if commit is not None:
                # The crash happened after the commit point: the run is
                # already durable and nothing needs replaying.
                out.committed = True
                out.outputs_digest = commit["digest"]
                out.skipped_ops = len(self.ops)
                return out
            return self._execute_and_commit(wal, out, journaled, checkpoints)

    def _identity(self) -> dict[str, Any]:
        """The ``BEGIN`` fields that pin *which run* a journal records;
        resuming under any other value would commit outputs no run
        produced."""
        return {"ops_digest": self.ops_digest,
                "run_seed": self.run_seed,
                "inputs": _inputs_to_json(self.inputs)}

    # -- shared machinery --------------------------------------------------

    def _execute_and_commit(self, wal: WriteAheadLog, out: RecoveryReport,
                            journaled: "dict[int, str] | None" = None,
                            checkpoints: Sequence[dict] = ()
                            ) -> RecoveryReport:
        """Execute what the journal does not already hold — journaling,
        checkpointing and cross-checking replayed digests — then seal
        the run.  ``journaled`` is None on an empty (or fully-torn)
        journal, which gets its ``BEGIN`` here.

        Nothing is appended for a program ``check_sequence`` rejects
        (:class:`CtStateError`) or a feed of the wrong length
        (:class:`ValueError`): the executor exists only past both.
        """
        report = check_sequence(self.ops, self.ctx.params,
                                scheme=self.scheme, label=self.label)
        program = ProgramExecutor(report, self.ctx, self.inputs)
        if journaled is None:
            journaled = {}
            wal.append(RT_BEGIN, encode({
                "label": self.label,
                "scheme": self.scheme,
                "ops": [op_to_row(op) for op in self.ops],
                "checkpoint_interval": self.checkpoint_interval,
                **self._identity(),
            }))
        values: list[Any] = [None] * len(self.ops)
        start = self._restore_checkpoint(checkpoints, report.states, values,
                                         out) + 1
        out.resumed_from = start - 1
        out.skipped_ops = start

        def before(index: int) -> None:
            crash_point(SITE_OP_BOUNDARY)
            _reseed(self.ctx, self.run_seed, index)

        def after(index: int, value: Any) -> None:
            digest = ciphertext_digest(value)
            previous = journaled.get(index)
            if previous is not None and previous != digest:
                raise DivergenceError(
                    f"op {index} ({self.ops[index].kind}) replayed to "
                    f"digest {digest[:12]}… but the journal recorded "
                    f"{previous[:12]}… — resume is not bit-identical")
            if previous is None:
                wal.append(RT_OP_DONE, encode({
                    "index": index, "digest": digest}))
            out.replayed_ops += 1
            obs.count("recover.ops_executed")
            if (self.checkpoint_interval > 0
                    and (index + 1) % self.checkpoint_interval == 0
                    and index + 1 < len(self.ops)):
                self._take_checkpoint(wal, values, index, report.states)

        with (obs.span("recover.replay", "recover", start=start)
              if start > 0 else nullcontext()):
            program.run(values, start=start, before=before, after=after)
        out.outputs_digest = outputs_digest(self.ops, values)
        wal.append(RT_COMMIT, encode({
            "digest": out.outputs_digest,
            "outputs": sink_indices(self.ops),
        }))
        out.committed = True
        return out

    def _take_checkpoint(self, wal: WriteAheadLog, values: list[Any],
                         boundary: int,
                         states: Sequence["CtState | None"]) -> None:
        with obs.span("recover.checkpoint", "recover", boundary=boundary):
            obs.count("recover.checkpoints")
            entries = ckpt.write_archives(
                self.directory, boundary, values,
                live_set(self.ops, boundary), states)
            wal.append(RT_CHECKPOINT, encode({
                "boundary": boundary,
                "ops_digest": self.ops_digest,
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

    def _restore_checkpoint(self, checkpoints: Sequence[dict],
                            states: Sequence["CtState | None"],
                            values: list[Any],
                            out: RecoveryReport) -> int:
        """Load the newest usable checkpoint into ``values``; returns
        its boundary (-1 when none is usable)."""
        for record in reversed(checkpoints):
            boundary = record["boundary"]
            if record["ops_digest"] != self.ops_digest:
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
