"""The compiled fused-kernel backend.

:class:`CompiledBackend` implements the ``KernelBackend`` protocol with
whole forward/inverse negacyclic NTTs, batched automorphisms, and the
fused keyswitch inner loop each run as a *single* compiled call over
the full ``(L, n)`` residue matrix — no per-stage numpy dispatch, no
full-size temporaries beyond one reusable workspace.  It subclasses
:class:`~repro.fhe.backend.NumpyBackend`, so every shape a gate or a
missing C toolchain refuses simply falls through to the vectorized
numpy path.

Bit-identity contract: every compiled kernel returns fully reduced
residues (< q), and a reduced residue is unique — so outputs match the
numpy and VPU paths bit for bit regardless of the internal reduction
schedule.  The shared object is built by whatever C compiler the host
has, so the backend additionally cross-checks each (kernel, shape) pair
against the numpy reference on first use (``self_check``) and raises
rather than silently returning wrong residues.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import keyswitch_lazy_accumulate_ok, mul_fits_uint64
from repro.fhe.backend import NumpyBackend
from repro.kernels.plan import (
    clear_compiled_caches,
    get_destinations,
    get_plan,
    get_workspace,
    plan_cache,
)
from repro.kernels.provider import (
    cjit_auto_batch,
    cjit_fwd_ntt_lazy,
    cjit_inv_ntt_lazy,
    cjit_inv_ntt_unclamped,
    cjit_ks_accum_lazy,
    cjit_ks_accum_reduced,
    resolve_provider,
)


class CompiledBackend(NumpyBackend):
    """Fused compiled kernels with analyzer-derived gates and numpy
    fallback.

    ``provider`` is a provider object, a provider name
    (``cext``/``none``), or None for the runtime-compiled C extension.
    With no provider available every dispatch falls back to the
    inherited numpy path — same results, seed-era speed.
    """

    name = "compiled"

    def __init__(self, provider=None, self_check: bool = True):
        super().__init__(mode="fast")
        if provider is None or isinstance(provider, str):
            provider = resolve_provider(provider)
        self._impl = provider
        #: First-use-per-shape cross-check against the numpy reference.
        self.self_check = self_check
        self._checked: set[tuple] = set()
        self.kernel_invocations = 0
        self.fallbacks = 0
        self.self_checks = 0

    @property
    def provider_name(self) -> str | None:
        """Active compiled provider (``cext``), or None."""
        return None if self._impl is None else self._impl.name

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
        """Reset the shared compiled-kernel state — constant-table plans
        (and their hit/miss counters), workspace buffers, automorphism
        destination tables — plus this instance's self-check memos."""
        clear_compiled_caches()
        self._checked.clear()

    # -- self-check ----------------------------------------------------------

    def _verify_first_use(self, key: tuple, reference_fn, out) -> None:
        """Compare one compiled result against the numpy reference, once
        per (kernel, shape): the runtime leg of the bit-identity
        contract, for whatever compiler built the provider."""
        if not self.self_check or key in self._checked:
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
        impl = self._impl
        reference = (NumpyBackend.inverse_ntt_batch if inverse
                     else NumpyBackend.forward_ntt_batch)
        plan = (get_plan(values.shape[1], primes)
                if impl is not None and values.shape[1] else None)
        use_ok = plan is not None and plan.lazy_stages_ok
        if use_ok:
            x = np.ascontiguousarray(values, dtype=np.uint64)
            out = np.empty_like(x)
            work = get_workspace(x.shape[0], x.shape[1])
            if not inverse:
                cjit_fwd_ntt_lazy(impl, plan, x, out, work)
            elif plan.unclamped_ok:
                cjit_inv_ntt_unclamped(impl, plan, x, out, work)
            else:
                cjit_inv_ntt_lazy(impl, plan, x, out, work)
            self.kernel_invocations += 1
            self._verify_first_use(
                ("intt" if inverse else "ntt", x.shape[1], primes),
                lambda: reference(self, x, primes), out)
            return out
        self.fallbacks += 1
        return reference(self, values, primes)

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
            cjit_auto_batch(impl, x, out, dest)
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
                                ) -> tuple[np.ndarray, np.ndarray]:
        """Fused decompose-side inner product: ``sum_d digit_d * b_d``
        and ``sum_d digit_d * a_d`` over ``(D, R, n)`` stacks in one
        compiled call, reduced per limb on return.

        The lazy (single-final-reduction) accumulator is selected by the
        derived gate :func:`~repro.analysis.bounds
        .keyswitch_lazy_accumulate_ok`; otherwise products reduce as
        they are added.  Moduli whose single products overflow uint64
        are the caller's (object-dtype) problem — this method refuses
        them.
        """
        digit_stack = np.ascontiguousarray(digit_stack, dtype=np.uint64)
        b_stack = np.ascontiguousarray(b_stack, dtype=np.uint64)
        a_stack = np.ascontiguousarray(a_stack, dtype=np.uint64)
        num_digits, rows, n = digit_stack.shape
        maxq = max(primes)
        lazy_ok = keyswitch_lazy_accumulate_ok(num_digits, maxq)
        reduced_ok = mul_fits_uint64(maxq - 1, maxq - 1)
        if not reduced_ok and not lazy_ok:
            raise ValueError(
                "keyswitch_inner_product requires single digit-key "
                "products to fit uint64; use the object-dtype "
                "accumulate_keyswitch path for wider moduli")
        q_arr = np.array(primes, dtype=np.uint64)
        impl = self._impl
        if impl is not None:
            mu_arr = np.array([(1 << 64) // q for q in primes],
                              dtype=np.uint64)
            acc0 = np.empty((rows, n), dtype=np.uint64)
            acc1 = np.empty((rows, n), dtype=np.uint64)
            if lazy_ok:
                cjit_ks_accum_lazy(impl, digit_stack, b_stack, a_stack,
                                   acc0, acc1, q_arr, mu_arr)
            else:
                cjit_ks_accum_reduced(impl, digit_stack, b_stack, a_stack,
                                      acc0, acc1, q_arr, mu_arr)
            self.kernel_invocations += 1
            self._verify_first_use(
                ("keyswitch", num_digits, rows, n, tuple(primes)),
                lambda: (digit_stack * b_stack % q_arr[None, :, None]).sum(
                    axis=0, dtype=np.uint64) % q_arr[:, None], acc0)
            return acc0, acc1
        # No provider: the per-step reduced numpy loop (identical
        # residues; single products proven to fit above).
        self.fallbacks += 1
        q_col = q_arr[:, None]
        acc0 = np.zeros((rows, n), dtype=np.uint64)
        acc1 = np.zeros((rows, n), dtype=np.uint64)
        for d in range(num_digits):
            acc0 = (acc0 + digit_stack[d] * b_stack[d] % q_col) % q_col
            acc1 = (acc1 + digit_stack[d] * a_stack[d] % q_col) % q_col
        return acc0, acc1
