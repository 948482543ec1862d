"""The compiled fused-kernel backend.

:class:`CompiledBackend` implements the ``KernelBackend`` protocol with
whole forward/inverse negacyclic NTTs, batched automorphisms, and the
fused keyswitch inner loop each run as a *single* compiled call over
the full ``(L, n)`` residue matrix — no per-stage numpy dispatch, no
full-size temporaries beyond one reusable workspace.  It subclasses
:class:`~repro.fhe.backend.NumpyBackend`, so a missing C toolchain or
a shape below ``n = 2`` falls through to the vectorized numpy path,
which walks the same batch plan
(:class:`~repro.ntt.negacyclic.BatchedNegacyclicNtt`) the kernels read.
On top of the protocol it offers the optional slots
``keyswitch_apply`` (the keyswitches of one polynomial or of several
of its rotations, its digit rows transformed once) and
``drop_top_limb`` (``rescale`` / ``mod_down``) — both row-fused — and
``tensor_product``, which return ``None`` instead of falling back so
the caller runs its own path.

Bit-identity contract: every compiled kernel returns fully reduced
residues (< q), and a reduced residue is unique — so outputs match the
numpy and VPU paths bit for bit regardless of the internal reduction
schedule.  The shared object is built by whatever C compiler the host
has, so the backend additionally cross-checks each (kernel, shape) pair
against the numpy reference on first use — the row-fused slots against
:mod:`repro.fhe.keyswitch`'s own phased paths — and raises rather than
silently returning wrong residues.

The backend picks no reduction schedule: it asks the plan whether a
row-fused kernel may run, and calls the binding
(:mod:`repro.kernels.cext`) with the plan, which carries the schedule
and is refused by the binding itself where a gate is False.
"""

from __future__ import annotations

import threading
from functools import partial

import numpy as np

from repro.automorphism.mapping import galois_eval_permutation
from repro.fhe.backend import NumpyBackend
from repro.kernels.cext import resolve_provider
from repro.ntt.negacyclic import check_host_moduli, get_batched_ntt, plan_cache

_WORKSPACES = threading.local()
_DESTINATIONS: dict[tuple[int, int], np.ndarray] = {}
_DESTINATIONS_LOCK = threading.Lock()


def get_workspace(rows: int, n: int) -> np.ndarray:
    """Reusable ``(rows, n)`` uint32 scratch buffer for one dispatch
    (the binding's ``work``: butterfly lanes, and for the row-fused
    entries uint64 rows before them).

    Workspaces are **thread-local**: the plan/destination tables are
    immutable and safely shared, but scratch is written by every
    dispatch, so concurrent same-shape dispatches from the serving
    layer's worker threads each get their own buffer."""
    pool = getattr(_WORKSPACES, "buffers", None)
    if pool is None:
        pool = _WORKSPACES.buffers = {}
    key = (rows, n)
    buf = pool.get(key)
    if buf is None:
        buf = np.empty((rows, n), dtype=np.uint32)
        pool[key] = buf
    return buf


def get_destinations(n: int, galois_k: int) -> np.ndarray:
    """Contiguous int64 destination table of the Galois permutation
    ``X -> X**galois_k`` (slot ``i`` lands at ``dest[i]``)."""
    key = (n, galois_k)
    with _DESTINATIONS_LOCK:
        dest = _DESTINATIONS.get(key)
        if dest is None:
            dest = np.ascontiguousarray(
                galois_eval_permutation(n, galois_k).destinations(),
                dtype=np.int64)
            _DESTINATIONS[key] = dest
    return dest


def clear_compiled_caches() -> None:
    """Drop the compiled kernels' own state: workspace buffers and
    automorphism destination tables.  Wired into the module-level
    :func:`repro.fhe.backend.clear_caches`, which also clears the plan
    cache every host backend shares and zeroes the
    ``backend.compiled_plan_cache.*`` gauges."""
    getattr(_WORKSPACES, "buffers", {}).clear()
    with _DESTINATIONS_LOCK:
        _DESTINATIONS.clear()


class _PhasedKernels:
    """A backend's three batch kernels and none of its optional slots:
    what the row-fused slots' oracles run the phased paths on.  Every
    transform goes through the slot's own ``(n, primes)`` plan, up to
    ``len(primes) - 1`` rows at a time (a digit's forward rows, the
    drop's top row; the rest are don't-cares), so the oracles stack no
    tables of their own: a plan for the whole ``L * L``-row digit batch
    is 33 MB a level at ``n = 8192``."""

    name = "compiled-phased"

    def __init__(self, backend, primes: tuple[int, ...]):
        self._primes = primes
        self.forward_ntt_batch = partial(self._through_plan,
                                         backend.forward_ntt_batch)
        self.inverse_ntt_batch = partial(self._through_plan,
                                         backend.inverse_ntt_batch)
        self.automorphism_eval_batch = backend.automorphism_eval_batch

    def _through_plan(self, kernel, residues: np.ndarray,
                      batch_primes: tuple[int, ...]) -> np.ndarray:
        primes, limbs = self._primes, len(self._primes) - 1
        out = np.empty_like(residues)
        block = np.zeros((limbs + 1, residues.shape[1]), dtype=np.uint64)
        for start in range(0, len(batch_primes), limbs):
            rows = [primes.index(q)
                    for q in batch_primes[start:start + limbs]]
            block[rows] = residues[start:start + limbs]
            out[start:start + limbs] = kernel(block, primes)[rows]
        return out


def _digit_stride(stack: np.ndarray) -> int | None:
    """Words between consecutive digits of a ``(D, R, n)`` uint64 key
    stack whose ``(R, n)`` slabs are packed — a contiguous stack or a
    part of a :class:`~repro.fhe.keyswitch.KeySwitchKey` block, which
    the kernel then reads in place — or None when it needs a copy."""
    n = stack.shape[2]
    if stack.dtype != np.uint64 or stack.strides[1:] != (8 * n, 8) \
            or stack.strides[0] % 8:
        return None
    return stack.strides[0] // 8


class CompiledBackend(NumpyBackend):
    """Fused compiled kernels with analyzer-derived gates and numpy
    fallback.

    ``provider`` is a provider object, a provider name
    (``cext``/``none``), or None for the runtime-compiled C extension.
    With no provider available every dispatch falls back to the
    inherited numpy path — same results, seed-era speed.
    """

    name = "compiled"

    def __init__(self, provider=None):
        super().__init__(mode="fast")
        if provider is None or isinstance(provider, str):
            provider = resolve_provider(provider)
        self._impl = provider
        #: (kernel, shape) pairs already cross-checked against numpy,
        #: tested and added under the lock as one step.
        self._checked: set[tuple] = set()
        self._checked_lock = threading.Lock()
        self.kernel_invocations = 0
        self.fallbacks = 0
        self.self_checks = 0

    @property
    def provider_name(self) -> str | None:
        """Active compiled provider (``cext``), or None."""
        return None if self._impl is None else self._impl.name

    @property
    def kernel_isa(self) -> str | None:
        """The clone of ``kernels.c``'s row kernels this host runs —
        ``x86-64-v4``, ``x86-64-v3`` or ``default``, picked once when
        the library loaded — or None without a compiled provider."""
        return getattr(self._impl, "isa", None)

    @property
    def plan_cache_hits(self) -> int:
        return plan_cache().hits

    @property
    def plan_cache_misses(self) -> int:
        return plan_cache().misses

    @property
    def plan_cache_size(self) -> int:
        return len(plan_cache())

    def clear_caches(self) -> None:
        """Reset the shared kernel state — the batch plans (and their
        hit/miss counters), workspace buffers, automorphism destination
        tables — plus this instance's self-check memos."""
        plan_cache().clear()
        clear_compiled_caches()
        with self._checked_lock:
            self._checked.clear()

    def _plan(self, n: int, primes: tuple[int, ...]):
        """The shape's batch plan, or None where no kernel runs: no
        provider, or ``n < 2``.  A modulus of ``2**30`` or more raises
        :class:`~repro.ntt.negacyclic.HostModulusError` here."""
        if self._impl is None or n < 2:
            return None
        return get_batched_ntt(n, primes)

    # -- self-check ----------------------------------------------------------

    def _verify_first_use(self, key: tuple, reference_fn, out) -> None:
        """Compare one compiled result against the numpy reference, once
        per (kernel, shape): the runtime leg of the bit-identity
        contract, for whatever compiler built the provider."""
        with self._checked_lock:
            if key in self._checked:
                return
            self._checked.add(key)
            self.self_checks += 1
        expected = reference_fn()
        if not np.array_equal(expected, out):
            raise RuntimeError(
                f"compiled kernel self-check failed for {key[0]} "
                f"(provider {self.provider_name}): output differs from "
                f"the numpy reference")

    # -- limb-batched kernels -------------------------------------------------

    def _ntt_batch(self, values: np.ndarray, primes: tuple[int, ...],
                   inverse: bool) -> np.ndarray:
        values = np.asarray(values)
        primes = tuple(primes)
        if values.shape[0] != len(primes):
            raise ValueError(f"ntt batch: {values.shape} rows do not match "
                             f"{len(primes)} primes")
        check_host_moduli(primes)
        plan = self._plan(values.shape[1], primes)
        if plan is not None:
            x = np.ascontiguousarray(values, dtype=np.uint64)
            out = np.empty_like(x)
            kernel = self._impl.inv_ntt if inverse else self._impl.fwd_ntt
            kernel(plan, x, out, get_workspace(x.shape[0], x.shape[1]))
            self.kernel_invocations += 1
            # The reference is numpy's walk of the same plan.
            self._verify_first_use(
                ("intt" if inverse else "ntt", x.shape[1], primes),
                lambda: (plan.inverse if inverse else plan.forward)(x), out)
            return out
        self.fallbacks += 1
        if inverse:
            return NumpyBackend.inverse_ntt_batch(self, values, primes)
        return NumpyBackend.forward_ntt_batch(self, values, primes)

    def forward_ntt_batch(self, residues: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        return self._ntt_batch(residues, primes, inverse=False)

    def inverse_ntt_batch(self, values: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        return self._ntt_batch(values, primes, inverse=True)

    def automorphism_eval_batch(self, values: np.ndarray, galois_k: int,
                                primes: tuple[int, ...]) -> np.ndarray:
        values = np.asarray(values)
        impl = self._impl
        if impl is not None and values.dtype == np.uint64 and values.shape[1]:
            dest = get_destinations(values.shape[1], galois_k)
            x = np.ascontiguousarray(values)
            out = np.empty_like(x)
            impl.auto(x, out, dest)
            self.kernel_invocations += 1
            self._verify_first_use(
                ("auto", x.shape[1], galois_k),
                lambda: NumpyBackend.automorphism_eval_batch(
                    self, x, galois_k, primes), out)
            return out
        self.fallbacks += 1
        return super().automorphism_eval_batch(values, galois_k, primes)

    # -- fused keyswitch inner loop ------------------------------------------

    def keyswitch_inner_product(self, digit_stack: np.ndarray,
                                b_stack: np.ndarray, a_stack: np.ndarray,
                                primes: tuple[int, ...],
                                ) -> tuple[np.ndarray, np.ndarray] | None:
        """Fused decompose-side inner product: ``sum_d digit_d * b_d``
        and ``sum_d digit_d * a_d`` over ``(D, R, n)`` stacks in one
        compiled call, reduced per limb on return — or ``None``, before
        allocating anything, when there is no provider: the caller then
        runs its own loop.

        ``b_stack`` / ``a_stack`` may be views whose digits sit a
        uniform stride apart (one part of a key block); they are then
        read in place.  The binding picks the lazy (single final
        reduction) or the per-step reduced accumulator from the derived
        gate; a modulus of ``2**30`` or more is refused first
        (:class:`~repro.ntt.negacyclic.HostModulusError`).
        """
        check_host_moduli(primes)
        impl = self._impl
        if impl is None:
            return None
        digit_stack = np.ascontiguousarray(digit_stack, dtype=np.uint64)
        num_digits, rows, n = digit_stack.shape
        key_stride = _digit_stride(b_stack)
        if key_stride is None or key_stride != _digit_stride(a_stack):
            b_stack = np.ascontiguousarray(b_stack, dtype=np.uint64)
            a_stack = np.ascontiguousarray(a_stack, dtype=np.uint64)
            key_stride = rows * n
        primes = tuple(primes)
        acc0 = np.empty((rows, n), dtype=np.uint64)
        acc1 = np.empty((rows, n), dtype=np.uint64)
        impl.ks_accum(primes, digit_stack, b_stack, a_stack, key_stride,
                      acc0, acc1)
        self.kernel_invocations += 1

        def reference() -> np.ndarray:
            q_arr = np.array(primes, dtype=np.uint64)
            return (digit_stack * b_stack % q_arr[None, :, None]).sum(
                axis=0, dtype=np.uint64) % q_arr[:, None]

        self._verify_first_use(
            ("keyswitch", num_digits, rows, n, primes), reference, acc0)
        return acc0, acc1

    # -- row-fused keyswitch and top-limb division ----------------------------

    def keyswitch_apply(self, residues: np.ndarray, primes: tuple[int, ...],
                        key_blocks, keep, galois=None,
                        ticks: np.ndarray | None = None, check=None,
                        ) -> tuple[np.ndarray, np.ndarray] | None:
        """``G`` keyswitches of one polynomial in one compiled call.

        Of the polynomial itself (``galois`` None — ``apply_keyswitch``
        is ``G = 1``), or of its Galois images ``X -> X^galois[g]``
        (rotations).  ``residues`` is the ``(L, n)``
        evaluation-domain matrix modulo ``primes[:-1]``; ``primes`` ends
        in the special prime.  ``key_blocks`` are ``G``
        :class:`~repro.fhe.keyswitch.KeySwitchKey` blocks
        ``(D >= L, 2, K, n)``, read in place through the ``L + 1`` row
        indices ``keep``.  Every digit row is transformed once and
        multiply-accumulated into all ``G`` accumulator pairs, rotation
        ``g`` reading it through the slot permutation of
        ``X -> X^galois[g]`` against ``key_blocks[g]``.  Returns two
        ``(G, L + 1, n)`` stacks — or ``None``, before allocating
        anything, when there is no provider or the plan's gate refuses
        (``plan.keyswitch_ok``): the caller then runs the phased path.
        ``ticks``, when given, is a 5-slot int64 array that gains the
        nanoseconds spent in the inverse NTTs, the digit lifts, the
        forward NTTs, the multiply-accumulates and the check's loops.
        ``check``, when given, is an integrity request
        (:meth:`repro.fault.integrity.AbftChecker.fused_check`): the
        kernel also takes the ABFT sums of every row NTT and of the
        spare-modulus channel and leaves them on it (``check.sums``,
        ``check.spare``, and the tables it read through as
        ``check.tables``) for the checker to judge; the call declines
        where ``plan.checksum_ok`` or the unreduced accumulator
        (``plan.ks_lazy``) is missing.
        """
        impl = self._impl
        primes = tuple(primes)
        limbs = len(primes) - 1
        key_blocks = list(key_blocks)
        if impl is None or limbs < 1 or not all(
                block.flags.c_contiguous and block.dtype == np.uint64
                for block in key_blocks):
            return None
        x = np.ascontiguousarray(residues, dtype=np.uint64)
        n = x.shape[1]
        keep = np.asarray(keep, dtype=np.int64)
        shapes = {block.shape for block in key_blocks}
        digits, parts, key_limbs, key_n = (
            shapes.pop() if len(shapes) == 1 else (0, 0, 0, 0))
        if x.shape[0] != limbs or digits < limbs or parts != 2 \
                or key_n != n or keep.shape != (limbs + 1,) \
                or keep.min() < 0 or keep.max() >= key_limbs \
                or (galois is not None and len(galois) != len(key_blocks)):
            raise ValueError(
                f"keyswitch_apply: {x.shape} residues, key blocks "
                f"{[block.shape for block in key_blocks]}, keep "
                f"{keep.tolist()} and Galois elements {galois} do not "
                f"describe keyswitches over {limbs + 1} primes")
        plan = self._plan(n, primes)
        if plan is None or not plan.keyswitch_ok or (
                check is not None and not (plan.checksum_ok and plan.ks_lazy)):
            return None
        count = len(key_blocks)
        acc0 = np.empty((count, limbs + 1, n), dtype=np.uint64)
        acc1 = np.empty((count, limbs + 1, n), dtype=np.uint64)
        # The kernel gathers: slot k of the image is slot src[k] of the
        # digit row, and the source table of X -> X^k is the destination
        # table of its inverse.
        tables = None if galois is None else [
            get_destinations(n, pow(k, -1, 2 * n)) for k in galois]
        impl.ks_apply(plan, x, key_blocks, keep, acc0, acc1,
                      get_workspace(5 * limbs + 3, n), ticks, check, tables)
        self.kernel_invocations += 1
        # The plain, one-table and several-table walks are checked apart.
        self._verify_first_use(
            ("keyswitch_apply", n, primes,
             None if galois is None else len(galois) > 1),
            lambda: self._keyswitch_oracle(x, primes, key_blocks, keep,
                                           galois),
            (acc0, acc1))
        return acc0, acc1

    def _keyswitch_oracle(self, x: np.ndarray, primes: tuple[int, ...],
                          key_blocks: list, keep: np.ndarray,
                          galois: list[int] | None):
        """The oracle of :meth:`keyswitch_apply`.  A plain call's is
        :mod:`repro.fhe.keyswitch`'s own phased path — decompose,
        accumulate — on this backend's three batch kernels alone (each
        checked against numpy on first use of its own shape), so no fused
        slot is taken.  A rotation's is the plain call (itself checked on
        its first use) on each Galois image of ``x``, permuted by numpy:
        the same keyswitch with the permutation outside the kernel."""
        if galois is not None:
            # (Not through a subclass's override: a spy sees its callers.)
            plain = [CompiledBackend.keyswitch_apply(
                self, NumpyBackend.automorphism_eval_batch(
                    self, x, k, primes[:-1]), primes, [block], keep)
                for k, block in zip(galois, key_blocks)]
            return tuple(map(np.concatenate, zip(*plain)))
        from repro.fhe import keyswitch
        from repro.fhe.backend import use_backend
        from repro.fhe.polynomial import RnsPoly

        with use_backend(_PhasedKernels(self, primes)):
            accs = keyswitch.phased_keyswitches(
                RnsPoly(x, primes[:-1], is_eval=True),
                [keyswitch.KeySwitchKey(block) for block in key_blocks],
                None, keep.tolist(), primes)
        return tuple(np.stack([pair[part].residues for pair in accs])
                     for part in (0, 1))

    def drop_top_limb(self, residues: np.ndarray, primes: tuple[int, ...],
                      inv_table, check=None) -> np.ndarray | None:
        """Rounded division by the top limb, ``(x - [x]_top) / q_top``,
        evaluation domain in and out, in one compiled call: the CKKS
        ``rescale`` and the special-prime ``mod_down`` (no plaintext
        modulus).  ``inv_table[j]`` is ``q_top^{-1} mod primes[j]``.
        Only the top row leaves the evaluation domain: ``R`` row NTTs,
        as in the phased division.  Returns the ``(R - 1, n)`` matrix,
        or ``None`` — before allocating anything — when there is no
        provider or a gate refuses, as for :meth:`keyswitch_apply`;
        ``check`` as there (row-NTT sums only: nothing is accumulated
        here).
        """
        impl = self._impl
        primes = tuple(primes)
        rows = len(primes)
        if impl is None or rows < 2:
            return None
        x = np.ascontiguousarray(residues, dtype=np.uint64)
        n = x.shape[1]
        inv = np.ascontiguousarray(inv_table, dtype=np.uint64)
        if x.shape[0] != rows or inv.shape != (rows - 1,):
            raise ValueError(
                f"drop_top_limb: {x.shape} residues and {inv.shape} "
                f"inverses do not match {rows} primes")
        plan = self._plan(n, primes)
        if plan is not None and plan.drop_top_ok and (
                check is None or plan.checksum_ok):
            out = np.empty((rows - 1, n), dtype=np.uint64)
            impl.drop_top(plan, x, inv, out, get_workspace(rows + 1, n),
                          check)
            self.kernel_invocations += 1
            self._verify_first_use(
                ("drop_top_limb", n, primes),
                lambda: self._phased_drop(x, primes, inv), out)
            return out
        return None

    def _phased_drop(self, x: np.ndarray, primes: tuple[int, ...],
                     inv: np.ndarray) -> np.ndarray:
        """The oracle of :meth:`drop_top_limb`:
        :func:`repro.fhe.keyswitch._divide_by_top_limb`'s phased path —
        top-row inverse, lift, forward batch, element-wise finish — on
        this backend's batch kernels alone, as for the keyswitch slot."""
        from repro.fhe import keyswitch
        from repro.fhe.backend import use_backend
        from repro.fhe.polynomial import RnsPoly

        with use_backend(_PhasedKernels(self, primes)):
            return keyswitch._divide_by_top_limb(
                RnsPoly(x, primes, is_eval=True), inv).residues

    # -- tensor product -------------------------------------------------------

    def tensor_product(self, a0: np.ndarray, a1: np.ndarray, b0: np.ndarray,
                       b1: np.ndarray, primes: tuple[int, ...],
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The parts ``(a0 b0, a0 b1 + a1 b0, a1 b1)`` of an unrelinearized
        product over ``(L, n)`` evaluation-domain blocks in one call — or
        ``None``, as for :meth:`keyswitch_apply` (no gate beyond the
        plan's own: a product of two words below ``2**30`` fits
        uint64)."""
        impl = self._impl
        primes = tuple(primes)
        if impl is None:
            return None
        blocks = [np.ascontiguousarray(block, dtype=np.uint64)
                  for block in (a0, a1, b0, b1)]
        shape = blocks[0].shape
        if any(block.shape != (len(primes),) + shape[1:2] for block in blocks):
            raise ValueError(
                f"tensor_product: blocks {[b.shape for b in blocks]} do "
                f"not match {len(primes)} primes")
        plan = self._plan(shape[1], primes)
        if plan is None:
            return None
        out = tuple(np.empty(shape, dtype=np.uint64) for _ in range(3))
        impl.tensor(plan, blocks, out)
        self.kernel_invocations += 1
        x0, x1, y0, y1 = blocks
        q = plan.q[:, None]
        self._verify_first_use(
            ("tensor_product", shape[1], primes),  # RnsPoly's * and +:
            lambda: (x0 * y0 % q, (x0 * y1 % q + x1 * y0 % q) % q,
                     x1 * y1 % q), out)
        return out
