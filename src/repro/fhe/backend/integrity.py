"""The runtime ABFT integrity layer, as a backend around a backend."""

from __future__ import annotations

import numpy as np

from repro.fault.injector import current_fault_hook
from repro.fault.integrity import AbftChecker
from repro.fault.policy import IntegrityPolicy
from repro.fhe.backend.numpy_backend import NumpyBackend, ladder_backend
from repro.fhe.backend.observed import observed
from repro.fhe.backend.vpu_backend import ProgramQuarantinedError


#: The optional fused kernels of the protocol: a whole keyswitch (of one
#: polynomial or of several of its rotations), a top-limb division, the
#: digit multiply-accumulate or the tensor product in one call.  ``OFF``
#: hands out all four as the wrapped backend has them.  A checking
#: policy hands out the two row-fused ones (:data:`_CHECKED`) *checked*
#: — the kernel takes the ABFT sums of its own row NTTs and accumulators,
#: the checker judges them (and, for rotations, the permutation tables
#: the kernel read through) — and never the other two, which have no
#: checked form (the phased accumulate then runs its numpy loop, the
#: tensor product in ``RnsPoly``).
_FUSED = ("keyswitch_inner_product", "keyswitch_apply", "drop_top_limb",
          "tensor_product")
_CHECKED = ("keyswitch_apply", "drop_top_limb")


class IntegrityBackend:
    """The runtime ABFT integrity layer, wrapping any kernel backend.

    Every batched kernel dispatch is verified after the fact with an
    O(n) algorithm-based check (:class:`~repro.fault.integrity
    .AbftChecker`): for NTT batches two dot products a row against
    precomputed weight vectors (``<r, y> == <Mᵀ r, x>``; a corrupted
    input or output word is always caught, an arbitrary corruption of a
    row escapes with probability ``1/q``), exact permutation replay for
    automorphisms, and a spare-modulus check of the keyswitch
    accumulators.  The weight tables (per ``(n, q, direction)``) and
    the keys' spare images are built on first use, live in the checker
    and go with :meth:`clear_caches`.  Where the wrapped backend has the
    row-fused ``keyswitch_apply`` / ``drop_top_limb`` kernels, a whole
    keyswitch (or the keyswitches of several rotations, or a top-limb
    division) is one *checked* kernel call instead: the kernel takes the
    same sums over its own row NTTs and accumulators and the checker
    judges them as the same checks — at ladder level 0 and without a
    ``dram`` / ``sram`` staging model only, since those need to see
    each dispatch.  What happens on a
    failed check is the :class:`~repro.fault.policy.IntegrityPolicy`:

    * ``OFF`` — no checks, no staging copies: bit-identical dispatch
      straight to the wrapped backend, its fused keyswitch kernels
      included.
    * ``DETECT`` — count and flag, keep the result.
    * ``DETECT_RETRY`` — bounded replay (``max_retries``), invalidating
      the wrapped backend's cached compiled program first.  (A checked
      fused call that fails is not replayed as such: it reports "not
      taken" and the caller reruns the op phase by phase, through this
      per-dispatch replay — one recovery mechanism.)
    * ``DETECT_DEGRADE`` — replay, then quarantine the compiled program
      (after ``quarantine_threshold`` failures) and walk the ladder:
      level 0 = wrapped backend, then :func:`ladder_backend` (level 1 =
      clamped numpy batched path, level 2 = golden per-row path).
      Degraded levels bypass the dram/sram staging models — the
      redundant re-read path.

    Optional ``dram``/``sram`` models stage inputs through
    :meth:`DramModel.transfer`/:meth:`OnChipSram.stage`, which is where
    buffer-site fault injection lands; checksums are taken from the
    *pristine* caller array (checksummed at the producer), so staging
    corruption is detectable.
    """

    name = "integrity"

    def __init__(self, inner=None,
                 policy: IntegrityPolicy | str = IntegrityPolicy.DETECT_RETRY,
                 *, seed: int = 0, max_retries: int = 2,
                 quarantine_threshold: int = 2, dram=None, sram=None):
        self.inner = NumpyBackend() if inner is None else inner
        self.policy = IntegrityPolicy.parse(policy)
        self.checker = AbftChecker(seed)
        self.max_retries = max_retries
        self.quarantine_threshold = quarantine_threshold
        self.dram = dram
        self.sram = sram
        self.detections = 0
        self.corrected = 0
        self.retries = 0
        self.flagged = 0
        self.degrade_level = 0
        self.degradations = 0
        self.keyswitch_detections = 0
        self.keyswitch_recomputed = 0
        self.dram_ns = 0.0
        self.sram_cycles = 0
        self._failures: dict[tuple, int] = {}

    # -- degradation ladder ------------------------------------------------

    def _level_backend(self, level: int):
        # Observed, so the kernels get a span of their own and the
        # checks are the self time of this backend's span.
        return observed(self.inner if level == 0 else ladder_backend(level))

    def _degrade(self) -> None:
        self.degrade_level = min(self.degrade_level + 1, 2)
        self.degradations += 1

    def _note_failure(self, key: tuple) -> None:
        """Failed-check bookkeeping against the wrapped backend's
        compiled-program cache: invalidate on early failures, quarantine
        (under DETECT_DEGRADE) once the threshold is reached."""
        count = self._failures.get(key, 0) + 1
        self._failures[key] = count
        invalidate = getattr(self.inner, "invalidate_program", None)
        if invalidate is None:
            return
        # One program serves every prime of the batch: dropping it drops
        # every binding too.
        kind, n, _, galois_k = key
        if (self.policy is IntegrityPolicy.DETECT_DEGRADE
                and count >= self.quarantine_threshold):
            self.inner.quarantine_program(kind, n, galois_k=galois_k)
        else:
            invalidate(kind, n, galois_k=galois_k)

    def _note_detection(self) -> None:
        self.detections += 1
        hook = current_fault_hook()
        if hook is not None:
            hook.note_detection()

    # -- staging / dispatch -------------------------------------------------

    def _stage_in(self, rows: np.ndarray) -> np.ndarray:
        work = rows
        if self.dram is not None:
            work, ns = self.dram.transfer(work, current_fault_hook())
            self.dram_ns += ns
        if self.sram is not None:
            work, cycles = self.sram.stage(work)  # raises if it cannot fit
            self.sram_cycles += cycles
        return work

    def _run(self, kind: str, rows: np.ndarray, primes: tuple[int, ...],
             galois_k: int | None, level: int) -> np.ndarray:
        backend = self._level_backend(level)
        if kind == "ntt":
            return backend.forward_ntt_batch(rows, primes)
        if kind == "intt":
            return backend.inverse_ntt_batch(rows, primes)
        return backend.automorphism_eval_batch(rows, galois_k, primes)

    def _verify(self, kind: str, inputs: np.ndarray, outputs: np.ndarray,
                primes: tuple[int, ...], galois_k: int | None) -> bool:
        if kind == "auto":
            return self.checker.check_automorphism_batch(inputs, outputs,
                                                         galois_k)
        return self.checker.check_ntt_batch(inputs, outputs, primes,
                                            inverse=kind == "intt")

    def _dispatch(self, kind: str, rows: np.ndarray,
                  primes: tuple[int, ...],
                  galois_k: int | None = None) -> np.ndarray:
        rows = np.asarray(rows)
        if self.policy is IntegrityPolicy.OFF:
            return self._run(kind, self._stage_in(rows), primes, galois_k, 0)
        attempts = 0
        key = (kind, rows.shape[1], primes, galois_k)
        while True:
            level = self.degrade_level
            work = self._stage_in(rows) if level == 0 else rows
            try:
                out = self._run(kind, work, primes, galois_k, level)
            except ProgramQuarantinedError:
                self._degrade()
                continue
            if self._verify(kind, rows, out, primes, galois_k):
                if attempts:
                    self.corrected += 1
                return out
            self._note_detection()
            if self.policy is IntegrityPolicy.DETECT:
                self.flagged += 1
                return out
            self._note_failure(key)
            if attempts < self.max_retries:
                attempts += 1
                self.retries += 1
                continue
            if (self.policy is IntegrityPolicy.DETECT_DEGRADE
                    and self.degrade_level < 2):
                self._degrade()
                attempts = 0
                continue
            # Replay budget and ladder exhausted: surface the (flagged)
            # result rather than loop forever against a persistent fault.
            self.flagged += 1
            return out

    # -- the backend protocol ----------------------------------------------

    def forward_ntt_batch(self, residues: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        return self._dispatch("ntt", residues, tuple(primes))

    def inverse_ntt_batch(self, values: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        return self._dispatch("intt", values, tuple(primes))

    def automorphism_eval_batch(self, values: np.ndarray, galois_k: int,
                                primes: tuple[int, ...]) -> np.ndarray:
        return self._dispatch("auto", values, tuple(primes), galois_k)

    # -- the optional protocol methods, present by policy ------------------

    def __getattr__(self, attr: str):
        """The keyswitch probes (``getattr`` with a default at the call
        site).  ``OFF`` hands out the wrapped backend's fused kernels
        (:data:`_FUSED`), those it has, and no check — so a keyswitch
        runs exactly as on the bare backend.  Every checking policy
        hands out the spare-modulus check and, of the fused kernels,
        only the checked row-fused ones (:data:`_CHECKED`) — when the
        wrapped backend has the slot *now* (probed by name at every
        call: the wrapped backend may be swapped for a proxy), at
        ladder level 0 and with no staging model; the phased path,
        whose every batch dispatch is visible here, is the rest."""
        off = self.__dict__.get("policy") is IntegrityPolicy.OFF
        if attr in _FUSED and off:
            return getattr(self._level_backend(0), attr)
        if attr == "check_keyswitch_accumulation" and not off:
            return self._check_keyswitch_accumulation
        if attr in _CHECKED and not off and not self.degrade_level \
                and self.dram is None and self.sram is None \
                and hasattr(self.inner, attr):
            return getattr(self, "_checked_" + attr)
        raise AttributeError(attr)

    def _checked_keyswitch_apply(self, residues: np.ndarray,
                                 primes: tuple[int, ...], key_blocks, keep,
                                 galois=None):
        """``keyswitch_apply`` on the wrapped backend with the kernel
        taking its own ABFT sums, judged and recorded as the phased
        keyswitch's checks: the inverse and the forward row-NTT batch
        once a call, then per key block its two accumulators (the spare
        channel against that key's image) and — for a rotation — the
        permutation table the kernel read through: ``2 + 2 G`` checks
        for ``G`` plain keyswitches, ``2 + 3 G`` for ``G`` rotations.
        ``None`` — "not taken", the caller runs the phases — when the
        wrapped slot declines, and after a mismatch under a replaying
        policy."""
        primes = tuple(primes)
        check = self.checker.fused_check(np.shape(residues)[1], primes,
                                         list(key_blocks), galois)
        return self._checked("keyswitch_apply", check, residues, primes,
                             key_blocks, keep, galois)

    def _checked_drop_top_limb(self, residues: np.ndarray,
                               primes: tuple[int, ...], inv_table):
        """``drop_top_limb`` likewise: the phased division's two checks
        (inverse batch, forward batch)."""
        primes = tuple(primes)
        check = self.checker.fused_check(np.shape(residues)[1], primes)
        return self._checked("drop_top_limb", check, residues, primes,
                             inv_table)

    def _checked(self, slot: str, check, *args):
        out = getattr(self._level_backend(0), slot)(*args, check=check)
        return out if out is None or self._judge_fused(check) else None

    def _judge_fused(self, check) -> bool:
        """Record a checked fused call's verdicts; False when the
        result must not be used (a mismatch under a policy that
        replays)."""
        verdicts = self.checker.check_fused(check)
        self.keyswitch_detections += verdicts[2:].count(False)
        failed = verdicts.count(False)
        for _ in range(failed):
            self._note_detection()
        if failed and self.policy is IntegrityPolicy.DETECT:
            self.flagged += failed
            return True
        return not failed

    def _check_keyswitch_accumulation(self, acc0: np.ndarray,
                                      acc1: np.ndarray, digits, ksk,
                                      keep: list[int]) -> tuple[bool, ...]:
        """Verify both lazy accumulators of one keyswitch over the
        spare modulus; one verdict each.

        True accepts the accumulator as-is; False tells the caller to
        recompute it on the independent per-step reduced channel (only
        under retry/degrade policies).
        """
        verdicts = self.checker.check_keyswitch_accumulation(
            (acc0, acc1), digits, ksk, keep)
        return tuple(ok or self._accept_flagged_accumulator()
                     for ok in verdicts)

    def _accept_flagged_accumulator(self) -> bool:
        self._note_detection()
        self.keyswitch_detections += 1
        if self.policy is IntegrityPolicy.DETECT:
            self.flagged += 1
            return True
        self.keyswitch_recomputed += 1
        return False

    # -- reporting ----------------------------------------------------------

    def integrity_counters(self) -> dict[str, int]:
        """The structured counter block a :class:`~repro.fault.report
        .FaultReport` aggregates per injection."""
        return {
            "checks": self.checker.checks,
            "mismatches": self.checker.mismatches,
            "detections": self.detections,
            "corrected": self.corrected,
            "retries": self.retries,
            "flagged": self.flagged,
            "degrade_level": self.degrade_level,
            "degradations": self.degradations,
            "keyswitch_detections": self.keyswitch_detections,
            "keyswitch_recomputed": self.keyswitch_recomputed,
        }

    def clear_caches(self) -> None:
        """Clear the wrapped backend's caches, the checker's weight
        tables and key spare images, and the failure counts (detection
        counters are the experiment record and survive)."""
        inner_clear = getattr(self._level_backend(0), "clear_caches", None)
        if inner_clear is not None:
            inner_clear()
        self.checker.clear_caches()
        self._failures.clear()
