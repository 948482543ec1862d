"""Durable execution: crash-safe op journaling, checkpoint/resume, and
the kill-campaign harness.

The serving layer (:mod:`repro.serve`) survives *request* failures —
timeouts, integrity faults, overload.  This package survives *process*
failures: SIGKILL, OOM, power loss.  The contract is the classic
database one, applied to recorded ciphertext-op sequences:

* every state transition is journaled to an append-only, checksummed,
  fsync-disciplined write-ahead log **before** it is acted on
  (:mod:`repro.recover.wal`, :mod:`repro.recover.journal`);
* periodic ciphertext checkpoints bound replay time, serialized through
  :mod:`repro.fhe.serialize` with content digests and abstract-state
  expectations (:mod:`repro.recover.checkpoint`);
* restart scans the journal, truncates the torn tail, validates the
  newest usable checkpoint, and resumes **bit-identically** — proven
  per-op against the journaled digests
  (:mod:`repro.recover.executor`);
* the kill campaign (:mod:`repro.recover.campaign`,
  ``python -m repro.recover --campaign``) SIGKILLs forked workers at
  seeded op boundaries and mid-WAL-record torn writes, classifying
  every resume and failing loudly on any silent divergence.

Lint rule ``FHC012`` (:mod:`repro.analysis.lint`) pins the fsync
discipline statically: a bare file write in this package is a finding
unless the surrounding function carries fsync evidence.
"""

from repro.recover.campaign import (CLASSIFICATIONS, EXECUTORS, CrashRun,
                                    KillCampaignResult, Workload,
                                    build_workload, recovery_latency_sweep,
                                    run_campaign)
from repro.recover.checkpoint import CheckpointEntry, CheckpointError
from repro.recover.executor import (DivergenceError, DurableExecutor,
                                    RecoveryReport, ResumeFinding,
                                    golden_outputs_digest, outputs_digest)
from repro.recover.journal import (JournalError, RECORD_TYPE_NAMES,
                                   RequestJournal)
from repro.recover.wal import Record, ScanResult, WriteAheadLog, scan

__all__ = [
    "CLASSIFICATIONS",
    "EXECUTORS",
    "RECORD_TYPE_NAMES",
    "CheckpointEntry",
    "CheckpointError",
    "CrashRun",
    "DivergenceError",
    "DurableExecutor",
    "JournalError",
    "KillCampaignResult",
    "Record",
    "RecoveryReport",
    "RequestJournal",
    "ResumeFinding",
    "ScanResult",
    "Workload",
    "WriteAheadLog",
    "build_workload",
    "golden_outputs_digest",
    "outputs_digest",
    "recovery_latency_sweep",
    "run_campaign",
    "scan",
]
