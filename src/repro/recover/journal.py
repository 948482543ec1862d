"""Typed records over the WAL: the op journal and the serve request
journal.

The WAL (:mod:`repro.recover.wal`) knows only bytes; this module gives
those bytes meaning.  An execution journal is a strict grammar::

    BEGIN (OP_DONE | CHECKPOINT)* COMMIT?

* ``BEGIN`` pins the workload: label, scheme, the full op list, the
  input feed, the run seed, and a digest over the ops so a later resume
  can detect a *stale* checkpoint taken against a different program.
  Resume refuses a journal whose digest, run seed or feed is not its
  own.
* ``OP_DONE`` records the digest of each produced ciphertext the moment
  the op completes — the bit-identity ledger replay is checked against.
* ``CHECKPOINT`` names the serialized live-set archives on disk (with
  their content digests and expected abstract states) so resume can
  skip the replayed prefix.
* ``COMMIT`` seals the run with the output digest.

Payloads are JSON (UTF-8): every field is an int, a string, or a list
thereof, so round-trips are exact — no floats cross the boundary except
``scale_log2`` inside checkpoint states, which is compared with a
tolerance, never for identity.

:class:`RequestJournal` is the serve-side cousin: ``SUBMIT`` /
``RESOLVE`` pairs over the same WAL machinery, so a restarted
:class:`repro.serve.ServeEngine` can re-enqueue requests that were
admitted but never answered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.recover.wal import Record, WriteAheadLog

__all__ = [
    "RT_BEGIN", "RT_OP_DONE", "RT_CHECKPOINT", "RT_COMMIT",
    "RT_SERVE_SUBMIT", "RT_SERVE_RESOLVE", "RECORD_TYPE_NAMES",
    "JournalError", "encode", "decode", "RequestJournal",
]

RT_BEGIN = 1
RT_OP_DONE = 2
RT_CHECKPOINT = 3
RT_COMMIT = 4
RT_SERVE_SUBMIT = 5
RT_SERVE_RESOLVE = 6

RECORD_TYPE_NAMES = {
    RT_BEGIN: "begin",
    RT_OP_DONE: "op_done",
    RT_CHECKPOINT: "checkpoint",
    RT_COMMIT: "commit",
    RT_SERVE_SUBMIT: "serve_submit",
    RT_SERVE_RESOLVE: "serve_resolve",
}


class JournalError(ValueError):
    """A structurally valid WAL record with semantically bad content."""


def encode(obj: dict) -> bytes:
    """JSON-encode a record payload (sorted keys, compact, UTF-8)."""
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def decode(record: Record) -> dict:
    """Decode a record payload; :class:`JournalError` on bad JSON."""
    try:
        obj = json.loads(record.payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise JournalError(
            f"record seq={record.seq} "
            f"({RECORD_TYPE_NAMES.get(record.rtype, record.rtype)}) has an "
            f"undecodable payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise JournalError(
            f"record seq={record.seq} payload is not a JSON object")
    return obj


@dataclass
class RequestJournal:
    """Durable submit/resolve ledger for :class:`repro.serve.ServeEngine`.

    ``record_submit`` runs after admission control passes and before the
    ticket is enqueued; ``record_resolve`` runs when the result future
    resolves.  After a crash, :meth:`pending` is exactly the set of
    requests the engine accepted but never answered — the restart path
    re-submits them with a fresh deadline of the same original budget.
    """

    path: Path
    _wal: "WriteAheadLog | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.path = Path(self.path)

    def _log(self) -> WriteAheadLog:
        if self._wal is None:
            self._wal, _ = WriteAheadLog.open_clean(self.path)
        return self._wal

    def record_submit(self, request_id: int, *, tenant: str, op: str,
                      timeout_s: float, payload: int = 0) -> None:
        entry = {
            "id": request_id,
            "tenant": tenant,
            "op": op,
            "timeout_us": int(timeout_s * 1_000_000),
            "payload": payload,
        }
        self._append(RT_SERVE_SUBMIT, entry, "recover.journal.submits")

    def record_resolve(self, request_id: int, status: str) -> None:
        self._append(RT_SERVE_RESOLVE, {"id": request_id, "status": status},
                     "recover.journal.resolves")

    def _append(self, rtype: int, entry: dict, counter: str) -> None:
        # Stamp the request's trace id into the durable record (and
        # count the append) so a post-crash inspection of the WAL links
        # each admitted request back to its distributed trace.  A trace
        # is only ever bound under an obs hook, so with observability
        # off the journal bytes are exactly the pre-tracing encoding —
        # no key, no id minting.
        ctx = obs.current_trace_context()
        if ctx is not None:
            entry["trace"] = ctx.trace_id
        obs.count(counter)
        self._log().append(rtype, encode(entry))

    def pending(self) -> list[dict]:
        """Replay the ledger: submits with no matching resolve, in
        submission order.  Timeouts come back as ``timeout_s`` floats."""
        from repro.recover.wal import scan
        submitted: dict[str, dict] = {}
        for record in scan(self.path).records:
            if record.rtype == RT_SERVE_SUBMIT:
                entry = decode(record)
                submitted[entry["id"]] = entry
            elif record.rtype == RT_SERVE_RESOLVE:
                submitted.pop(decode(record)["id"], None)
        out = []
        for entry in submitted.values():
            entry = dict(entry)
            entry["timeout_s"] = entry.pop("timeout_us") / 1_000_000
            out.append(entry)
        return out

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None
