"""Fault injection and runtime integrity (ABFT) for the behavioral model.

* :mod:`repro.fault.injector` — deterministic fault specs and the
  injection engine (register file, mux network, lane ALUs, SRAM/DRAM
  words, keyswitch accumulators).
* :mod:`repro.fault.integrity` — O(n) ABFT checks: per NTT row two dot
  products against a precomputed weight pair ``(r, Mᵀ r)`` — no
  transform at check time; one corrupted word is always caught, an
  arbitrary in-kernel corruption escapes with probability ``1/q`` —
  plus exact automorphism replay and spare-modulus keyswitch
  verification.
* :mod:`repro.fault.crash` — process-level crash sites (seeded SIGKILL
  at op boundaries and mid-WAL-record torn writes) for the
  durable-execution kill campaign (:mod:`repro.recover`).
* :mod:`repro.fault.policy` — the runtime response ladder (off /
  detect / detect+retry / detect+degrade).
* :mod:`repro.fault.report` — structured campaign results.
* :mod:`repro.fault.campaign` / :mod:`repro.fault.cli` — seeded
  site x kind x cycle x bit sweeps (``python -m repro.fault``); import
  them directly, they are kept out of this namespace so the FHE backend
  can import the leaf modules without a cycle.
"""

from repro.fault.crash import (
    PROCESS_SITES,
    SITE_OP_BOUNDARY,
    SITE_WAL_MID_RECORD,
    CrashInjector,
    CrashSpec,
    crash_point,
    current_crash_hook,
    install_crash_hook,
    pending_tear,
)
from repro.fault.injector import (
    ALL_SITES,
    BUFFER_SITES,
    CORE_SITES,
    KINDS,
    FaultInjector,
    FaultSpec,
    current_fault_hook,
    install_fault_hook,
    use_fault_hook,
)
from repro.fault.integrity import SPARE_MODULUS, AbftChecker
from repro.fault.policy import IntegrityPolicy
from repro.fault.report import OUTCOMES, FaultEvent, FaultReport

__all__ = [
    "ALL_SITES",
    "BUFFER_SITES",
    "CORE_SITES",
    "KINDS",
    "OUTCOMES",
    "PROCESS_SITES",
    "SITE_OP_BOUNDARY",
    "SITE_WAL_MID_RECORD",
    "SPARE_MODULUS",
    "AbftChecker",
    "CrashInjector",
    "CrashSpec",
    "FaultEvent",
    "FaultInjector",
    "FaultReport",
    "FaultSpec",
    "IntegrityPolicy",
    "crash_point",
    "current_crash_hook",
    "current_fault_hook",
    "install_crash_hook",
    "install_fault_hook",
    "pending_tear",
    "use_fault_hook",
]
