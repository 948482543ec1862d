"""Provider resolution and the gated ``cjit_*`` kernel entries.

There is one compiled provider, the runtime-compiled C extension
(:mod:`repro.kernels.cext`); where it cannot be built the backend runs
the numpy path.

The ``cjit_*`` functions are the *only* way production code invokes a
compiled kernel.  Names carry the reduction discipline: a ``*_lazy`` /
``*_unclamped`` entry runs a lazy-reduction schedule whose soundness is
conditional on an analyzer-derived gate (``compiled_ntt_ok``,
``unclamped_dit_ok``, ``keyswitch_lazy_accumulate_ok`` — surfaced as
``*_ok`` plan attributes/locals at the call site), and the FHC007 lint
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
                       astack: np.ndarray, acc0: np.ndarray,
                       acc1: np.ndarray, q_arr: np.ndarray,
                       mu_arr: np.ndarray) -> None:
    """Fused keyswitch inner product with the unreduced uint64
    accumulator and one final reduction per limb.  Gate:
    :func:`~repro.analysis.bounds.keyswitch_lazy_accumulate_ok`."""
    impl.ks_accum(digits, bstack, astack, acc0, acc1, q_arr, mu_arr, True)


def cjit_ks_accum_reduced(impl, digits: np.ndarray, bstack: np.ndarray,
                          astack: np.ndarray, acc0: np.ndarray,
                          acc1: np.ndarray, q_arr: np.ndarray,
                          mu_arr: np.ndarray) -> None:
    """Fused keyswitch inner product, every product reduced as it is
    added (the per-step channel for digit counts the lazy gate
    refuses; still requires single products to fit uint64)."""
    impl.ks_accum(digits, bstack, astack, acc0, acc1, q_arr, mu_arr, False)
