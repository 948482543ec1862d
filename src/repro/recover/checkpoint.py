"""Ciphertext checkpoints: durable archives and validated loading.

A checkpoint at op boundary ``k`` persists exactly the *live set*
(:func:`repro.fhe.program.live_set`) — values ``i <= k`` that some later
op still reads, plus sinks (values no later op consumes, i.e. the run's
outputs so far).  Dead intermediates are never written: on the deep
multiply/rescale chains the canonical workloads use, the live set stays
O(1) while the value list grows O(n).

Write protocol (crash-ordering matters):

1. each live ciphertext is serialized through
   :func:`repro.fhe.serialize.save_ciphertext` and fsync'd;
2. only then is the ``CHECKPOINT`` record appended to the WAL, naming
   every archive with its content digest and expected abstract state.

A crash between (1) and (2) leaves orphan archives and no record —
resume never sees them.  A crash during (1) leaves a partial archive
that the journal never references.  The record is therefore the commit
point: if it is durable, every archive it names was durable first.

Load-side validation is three layers deep, each one a distinct typed
finding in the resume report:

* archive digest (``SerializationError`` from the serialize layer, or
  a journal-vs-archive digest mismatch) → ``corrupt_checkpoint``;
* the journal record's ``ops_digest``
  (:func:`repro.fhe.program.ops_digest`) vs the current program →
  ``stale_checkpoint``;
* the loaded ciphertext's abstract state (level / domain / size, and
  ``scale_log2`` within tolerance) vs a fresh
  :func:`repro.analysis.ctstate.check_sequence` of the same prefix →
  also ``corrupt_checkpoint`` (the archive decoded but does not match
  the program's verdict).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.analysis.ctstate import CtState
from repro.fhe.serialize import (SerializationError, ciphertext_digest,
                                 load_ciphertext, save_ciphertext)

__all__ = [
    "CheckpointEntry", "CheckpointError", "checkpoint_file_name",
    "write_archives", "load_entry", "state_matches",
]

#: ``scale_log2`` agreement tolerance between a loaded ciphertext and
#: the abstract interpreter's prediction (floats cross a JSON boundary).
SCALE_LOG2_TOL = 1e-6


class CheckpointError(RuntimeError):
    """A checkpoint that failed validation (corrupt or stale)."""


@dataclass(frozen=True)
class CheckpointEntry:
    """One live value inside a checkpoint record."""

    value_index: int
    file_name: str
    digest: str
    state: "CtState | None"


def checkpoint_file_name(boundary: int, value_index: int) -> str:
    return f"ckpt_{boundary:05d}_v{value_index:03d}.npz"


def write_archives(directory: Path, boundary: int,
                   values: Sequence[Any], live: Sequence[int],
                   states: Sequence["CtState | None"]) -> list[CheckpointEntry]:
    """Serialize the live set durably; returns the journal entries.

    Archives are fsync'd individually *before* the caller appends the
    CHECKPOINT record — see the module docstring for why this ordering
    is load-bearing.
    """
    entries = []
    for index in live:
        name = checkpoint_file_name(boundary, index)
        path = directory / name
        save_ciphertext(values[index], path)
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        entries.append(CheckpointEntry(
            value_index=index,
            file_name=name,
            digest=ciphertext_digest(values[index]),
            state=states[index] if index < len(states) else None,
        ))
    return entries


def state_matches(ct: Any, expected: "CtState | None") -> "str | None":
    """Compare a loaded ciphertext against the interpreter's predicted
    abstract state; returns a mismatch description or None when they
    agree."""
    if expected is None:
        return None
    level = getattr(ct, "level", None)
    if level != expected.level:
        return f"level {level} != expected {expected.level}"
    size = len(getattr(ct, "parts", ()))
    if size != expected.size:
        return f"size {size} != expected {expected.size}"
    domain = "eval" if ct.parts[0].is_eval else "coeff"
    if domain != expected.domain:
        return f"domain {domain!r} != expected {expected.domain!r}"
    scale = getattr(ct, "scale", None)
    if scale is not None and scale > 0 and expected.scale_log2 > 0:
        got = math.log2(scale)
        if abs(got - expected.scale_log2) > SCALE_LOG2_TOL:
            return (f"scale_log2 {got:.6f} != expected "
                    f"{expected.scale_log2:.6f}")
    return None


def load_entry(directory: Path, entry: CheckpointEntry) -> Any:
    """Load and fully validate one checkpointed ciphertext.

    Raises :class:`CheckpointError` on any of: missing/truncated/corrupt
    archive (via :class:`SerializationError`), journal-vs-archive digest
    mismatch, or abstract-state disagreement.
    """
    path = directory / entry.file_name
    try:
        ct = load_ciphertext(path)
    except FileNotFoundError as exc:
        raise CheckpointError(
            f"checkpoint archive {entry.file_name} missing: {exc}") from exc
    except SerializationError as exc:
        raise CheckpointError(
            f"checkpoint archive {entry.file_name} corrupt: {exc}") from exc
    digest = ciphertext_digest(ct)
    if digest != entry.digest:
        raise CheckpointError(
            f"checkpoint archive {entry.file_name} digest mismatch: "
            f"journal says {entry.digest[:12]}…, archive decodes to "
            f"{digest[:12]}…")
    mismatch = state_matches(ct, entry.state)
    if mismatch is not None:
        raise CheckpointError(
            f"checkpoint value v{entry.value_index} abstract-state "
            f"disagreement: {mismatch}")
    return ct
