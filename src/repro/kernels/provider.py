"""Provider resolution and the gated ``cjit_*`` kernel entries.

There is one compiled provider, the runtime-compiled C extension
(:mod:`repro.kernels.cext`); where it cannot be built the backend runs
the numpy path.

The ``cjit_*`` functions are the *only* way production code invokes a
compiled kernel.  Names carry the reduction discipline: a ``*_lazy`` /
``*_unclamped`` entry runs a lazy-reduction schedule whose soundness is
conditional on an analyzer-derived gate (``compiled_ntt_ok``,
``unclamped_dit_ok``, ``keyswitch_lazy_accumulate_ok``,
``centered_lift_lazy_ok`` — surfaced as ``*_ok`` plan attributes/locals
at the call site), and the FHC007 lint
rule statically rejects any call that is not under such a gate.
"""

from __future__ import annotations

import numpy as np


def resolve_provider(name: str | None = None):
    """The compiled-kernel provider: ``cext`` (also the meaning of
    None), or ``none`` for no provider at all.  Returns ``None`` when
    there is none or the C extension cannot be built — the backend then
    runs the numpy path."""
    if name == "none":
        return None
    if name not in (None, "cext"):
        raise ValueError(
            f"unknown compiled-kernel provider {name!r} (cext|none)")
    from repro.kernels.cext import load_provider

    return load_provider()


def cjit_fwd_ntt_lazy(impl, plan, x: np.ndarray, out: np.ndarray,
                      work: np.ndarray) -> np.ndarray:
    """Whole forward negacyclic NTT, lazy stages fused into one call.

    Gate: ``plan.lazy_stages_ok`` (:func:`~repro.analysis.bounds
    .compiled_ntt_ok`); the Shoup butterfly variant is selected by
    ``plan.shoup_ok``.  Output fully reduced (< q)."""
    impl.fwd_ntt(plan, x, out, work, plan.shoup_ok)
    return out


def cjit_inv_ntt_unclamped(impl, plan, x: np.ndarray, out: np.ndarray,
                           work: np.ndarray) -> np.ndarray:
    """Whole inverse NTT on the clamp-free schedule (lanes grow ``+q``
    per stage).  Gate: ``plan.unclamped_ok`` (:func:`~repro.analysis
    .bounds.unclamped_dit_ok`).  Output fully reduced (< q)."""
    impl.inv_ntt(plan, x, out, work, 2)
    return out


def cjit_inv_ntt_lazy(impl, plan, x: np.ndarray, out: np.ndarray,
                      work: np.ndarray) -> np.ndarray:
    """Whole inverse NTT, lazy (< 2q) stages; Shoup variant under
    ``plan.shoup_ok``, Barrett otherwise.  Gate:
    ``plan.lazy_stages_ok``.  Output fully reduced (< q)."""
    impl.inv_ntt(plan, x, out, work, 1 if plan.shoup_ok else 0)
    return out


def cjit_auto_batch(impl, x: np.ndarray, out: np.ndarray,
                    dest: np.ndarray) -> np.ndarray:
    """Batched evaluation-domain automorphism (pure gather — no
    reduction discipline, hence no gate in the name)."""
    impl.auto(x, out, dest)
    return out


def cjit_ks_accum_lazy(impl, digits: np.ndarray, bstack: np.ndarray,
                       astack: np.ndarray, key_stride: int,
                       acc0: np.ndarray, acc1: np.ndarray,
                       q_arr: np.ndarray, mu_arr: np.ndarray) -> None:
    """Fused keyswitch inner product with the unreduced uint64
    accumulator and one final reduction per limb.  Gate:
    :func:`~repro.analysis.bounds.keyswitch_lazy_accumulate_ok`.
    ``key_stride`` is the distance in words between consecutive
    digits' key rows."""
    impl.ks_accum(digits, bstack, astack, key_stride, acc0, acc1, q_arr,
                  mu_arr, True)


def cjit_ks_accum_reduced(impl, digits: np.ndarray, bstack: np.ndarray,
                          astack: np.ndarray, key_stride: int,
                          acc0: np.ndarray, acc1: np.ndarray,
                          q_arr: np.ndarray, mu_arr: np.ndarray) -> None:
    """Fused keyswitch inner product, every product reduced as it is
    added (the per-step channel for digit counts the lazy gate
    refuses; still requires single products to fit uint64)."""
    impl.ks_accum(digits, bstack, astack, key_stride, acc0, acc1, q_arr,
                  mu_arr, False)


def _inverse_mode(plan) -> int:
    """The inverse schedule a fused entry runs its leading inverse NTTs
    on: clamp-free under ``plan.unclamped_ok``, else lazy Shoup under
    ``plan.shoup_ok``, else lazy Barrett."""
    return 2 if plan.unclamped_ok else 1 if plan.shoup_ok else 0


def cjit_keyswitch_apply_lazy(impl, plan, x: np.ndarray, key: np.ndarray,
                              keep: np.ndarray, acc0: np.ndarray,
                              acc1: np.ndarray, work: np.ndarray,
                              lazy_accumulate: bool,
                              ticks: np.ndarray | None) -> None:
    """Row-fused keyswitch: inverse NTTs, conditional-add digit lifts,
    forward NTTs and the multiply-accumulate against key rows read in
    place, one call.  Gates: ``plan.lazy_stages_ok`` (lazy NTT stages),
    :func:`~repro.analysis.bounds.centered_lift_lazy_ok` (the lift) and
    a single digit-key product fitting uint64; ``lazy_accumulate`` must
    be :func:`~repro.analysis.bounds.keyswitch_lazy_accumulate_ok`'s
    answer (per-step reduced accumulator when False)."""
    impl.ks_apply(plan, x, key, keep, acc0, acc1, work, plan.shoup_ok,
                  _inverse_mode(plan), lazy_accumulate, ticks)


def cjit_drop_top_limb_lazy(impl, plan, x: np.ndarray, inv: np.ndarray,
                            out: np.ndarray, work: np.ndarray) -> None:
    """Rounded division by the top limb, evaluation domain in and out,
    one call.  Gates: ``plan.lazy_stages_ok`` and
    :func:`~repro.analysis.bounds.centered_lift_lazy_ok` for the top
    prime against every remaining one."""
    impl.drop_top(plan, x, inv, out, work, plan.shoup_ok,
                  _inverse_mode(plan))
