"""Iterative O(N log N) NTTs: Gentleman–Sande DIF and Cooley–Tukey DIT.

Conventions (shared across the repository):

* ``ntt_dif``: natural-order input, **bit-reversed** output, forward
  transform with root ``omega``.
* ``intt_dit``: **bit-reversed** input, natural-order output, inverse
  transform (uses ``omega^{-1}`` internally and scales by ``n^{-1}``).

Chaining them needs no bit-reversal pass — the property the VPU exploits
by providing both DIT and DIF butterflies (paper §III-A).

Scalar versions operate on Python ints (any modulus width); the ``vec_*``
versions are vectorized numpy paths for ``q < 2**31``.
"""

from __future__ import annotations

import numpy as np

from repro.ntt.tables import NttTables


def ntt_dif(x: list[int], tables: NttTables) -> list[int]:
    """Forward DIF NTT.  Natural-order input, bit-reversed output."""
    n, q = tables.n, tables.q
    if len(x) != n:
        raise ValueError(f"expected length {n}, got {len(x)}")
    a = [int(v) % q for v in x]
    length = n // 2
    while length >= 1:
        # Stage twiddle step: omega^(n / (2*length)).
        step = n // (2 * length)
        for start in range(0, n, 2 * length):
            for j in range(length):
                u = a[start + j]
                v = a[start + j + length]
                a[start + j] = (u + v) % q
                a[start + j + length] = (u - v) * tables.omega_power(j * step) % q
        length //= 2
    return a


def intt_dit(x: list[int], tables: NttTables) -> list[int]:
    """Inverse DIT NTT.  Bit-reversed input, natural-order output."""
    n, q = tables.n, tables.q
    if len(x) != n:
        raise ValueError(f"expected length {n}, got {len(x)}")
    a = [int(v) % q for v in x]
    length = 1
    while length < n:
        step = n // (2 * length)
        for start in range(0, n, 2 * length):
            for j in range(length):
                u = a[start + j]
                v = a[start + j + length] * tables.omega_inv_power(j * step) % q
                a[start + j] = (u + v) % q
                a[start + j + length] = (u - v) % q
        length *= 2
    n_inv = tables.n_inv
    return [v * n_inv % q for v in a]


# ---------------------------------------------------------------------------
# Vectorized numpy paths (q < 2**31)
# ---------------------------------------------------------------------------


def _check_vec(tables: NttTables) -> None:
    if tables.q >= (1 << 31):
        raise ValueError("vectorized NTT requires q < 2**31")


def vec_ntt_dif(x: np.ndarray, tables: NttTables) -> np.ndarray:
    """Vectorized forward DIF NTT (natural in, bit-reversed out).

    Accepts an array whose **last axis** has length ``n``; transforms all
    leading axes independently (batched NTT over RNS limbs).
    """
    _check_vec(tables)
    n, q = tables.n, np.uint64(tables.q)
    x = np.asarray(x, dtype=np.uint64)
    if x.shape[-1] != n:
        raise ValueError(f"last axis must be {n}, got {x.shape[-1]}")
    a = (x % q).reshape(-1, n).copy()
    length = n // 2
    for tw in tables.dif_stage_twiddles:
        blocks = a.reshape(a.shape[0], -1, 2 * length)
        u = blocks[:, :, :length]
        v = blocks[:, :, length:]
        total = u + v
        diff = (u + q) - v
        blocks[:, :, :length] = total % q
        blocks[:, :, length:] = (diff % q) * tw % q
        length //= 2
    return a.reshape(x.shape)


def vec_intt_dit(x: np.ndarray, tables: NttTables) -> np.ndarray:
    """Vectorized inverse DIT NTT (bit-reversed in, natural out)."""
    _check_vec(tables)
    n, q = tables.n, np.uint64(tables.q)
    x = np.asarray(x, dtype=np.uint64)
    if x.shape[-1] != n:
        raise ValueError(f"last axis must be {n}, got {x.shape[-1]}")
    a = (x % q).reshape(-1, n).copy()
    length = 1
    for tw in tables.dit_stage_twiddles:
        blocks = a.reshape(a.shape[0], -1, 2 * length)
        u = blocks[:, :, :length].copy()
        v = blocks[:, :, length:] * tw % q
        blocks[:, :, :length] = (u + v) % q
        blocks[:, :, length:] = ((u + q) - v) % q
        length *= 2
    a = a * np.uint64(tables.n_inv) % q
    return a.reshape(x.shape)


# ---------------------------------------------------------------------------
# Limb-batched stage kernels: one dispatch over a stack of rows, each
# with its own prime modulus (the shape keyswitch and ring conversions
# produce).  They run on negacyclic.BatchedNegacyclicNtt's per-block
# views of its flat twiddle stacks.
#
# A stack is ``(R, m)`` with twiddle views ``(R, 1, length)``, or
# ``(R, m, lanes)`` with views ``(R, 1, length, 1)``: butterflies pair
# entries of axis 1, and the ``lanes`` trailing columns go through
# each stage alike.  A stage's half-length (its butterfly span) is its
# twiddle view's ``length``, so a call runs any consecutive stages.
# The plan runs the spans of at least 16 on a row block's ``(R, n)``
# rows and the shorter ones on the block's transposed ``(R, 16,
# n/16)`` copy, where every ufunc walks contiguous runs ``n/16`` long
# instead of 1-8 words (the paper's lane-parallel stages, then the
# short spans after a transpose).  Temporaries are few and updated in
# place, so a block's working set stays in cache.
#
# The stage loops use lazy reduction: uint64 `%` by a broadcast divisor
# is numpy's slowest elementwise op, so the add/sub halves of every
# butterfly keep values below 2q (DIF) or 4q (DIT) with a masked
# conditional subtract, and only the twiddle product takes a true `%`.
# Safe for any q < 2**31: the worst intermediate is (4q - 1)(q - 1),
# below 2**64.
# ---------------------------------------------------------------------------


_SHIFT32 = np.uint64(32)


def dif_stages_lazy(a: np.ndarray, q3: np.ndarray, two_q3: np.ndarray,
                    tw_stages: list[np.ndarray],
                    shoup_stages: list[np.ndarray] | None = None) -> None:
    """In-place Gentleman–Sande stages, one per twiddle view.

    ``a`` is an ``(R, m)`` or ``(R, m, lanes)`` stack; spans halve.

    Inputs may be lazily reduced (``< 2q`` per row — the Shoup psi fold
    feeds exactly that); outputs are ``< 2q`` — callers finish with one
    conditional subtract.  The ``< 4q`` butterfly transient then caps
    the twiddle product at ``(4q-1)(q-1)``, inside uint64 for every
    ``q < 2**31`` (machine-checked by
    :func:`repro.analysis.stage_plans.analyze_dif_lazy`).
    ``q3``/``two_q3`` are broadcast columns, one axis more than ``a``.

    With ``shoup_stages`` (requires every ``q < 2**30``) the twiddle
    product uses Shoup multiplication — ``r = x*w - (x*w' >> 32)*q`` with
    ``w' = floor(w * 2**32 / q)`` — which lands in ``[0, 2q)`` without a
    single ``%``.  The ``< 2q`` lane invariant absorbs that laziness.
    """
    rows, lanes = a.shape[0], a.shape[2:]
    for stage, tw in enumerate(tw_stages):
        length = tw.shape[2]
        blocks = a.reshape(rows, -1, 2 * length, *lanes)
        u = blocks[:, :, :length]
        v = blocks[:, :, length:]
        total = u + v                      # < 4q
        diff = u + two_q3
        diff -= v                          # < 4q, positive
        # Unsigned-wraparound conditional subtract: total - 2q wraps to a
        # huge value exactly when total < 2q, so minimum() selects right.
        np.minimum(total, total - two_q3, out=u)            # < 2q
        if length == 1:
            # Last stage: the single twiddle is omega**0 == 1 for every
            # prime — skip the product, clamp the raw difference.
            np.minimum(diff, diff - two_q3, out=v)          # < 2q
        elif shoup_stages is not None:
            q_hat = diff * shoup_stages[stage]
            q_hat >>= _SHIFT32
            q_hat *= q3
            diff *= tw
            np.subtract(diff, q_hat, out=v)                 # < 2q
        else:
            diff *= tw
            np.remainder(diff, q3, out=v)                   # < q


def dit_stages_lazy(a: np.ndarray, q3: np.ndarray, two_q3: np.ndarray,
                    tw_stages: list[np.ndarray],
                    shoup_stages: list[np.ndarray] | None = None) -> None:
    """In-place Cooley–Tukey DIT stages, one per twiddle view.

    ``a`` is an ``(R, m)`` or ``(R, m, lanes)`` stack; spans double.

    Every lane stays ``< 2q`` across stages: unlike the DIF pass, a DIT
    stage's input halves mix the previous stage's sum *and* difference
    lanes, so the difference lane must be clamped back under ``2q`` too
    or magnitudes grow linearly with the stage count.  Inputs must be
    ``< 2q``; outputs are ``< 2q`` — callers fold the final reduction
    into the ``n^{-1}`` scaling multiply.  With ``shoup_stages`` the
    twiddle product runs mod-free (Shoup lands in ``[0, 2q)``, which the
    invariant absorbs); requires every ``q < 2**30``.
    """
    rows, lanes = a.shape[0], a.shape[2:]
    for stage, tw in enumerate(tw_stages):
        length = tw.shape[2]
        blocks = a.reshape(rows, -1, 2 * length, *lanes)
        u = blocks[:, :, :length]          # < 2q
        vin = blocks[:, :, length:]        # < 2q < 2**32
        if length == 1:
            v = vin                        # twiddle is omega**0 == 1
        elif shoup_stages is not None:
            q_hat = vin * shoup_stages[stage]
            q_hat >>= _SHIFT32
            q_hat *= q3
            v = vin * tw
            v -= q_hat                     # < 2q
        else:
            v = vin * tw
            v %= q3                        # < q
        total = u + v                      # < 4q
        diff = u + two_q3
        diff -= v                          # < 4q, positive
        # Both halves are read; now overwrite them.
        np.minimum(total, total - two_q3, out=u)      # < 2q
        np.minimum(diff, diff - two_q3, out=vin)      # < 2q


def dit_stages_unclamped(a: np.ndarray, q3: np.ndarray,
                         tw_stages: list[np.ndarray]) -> None:
    """In-place DIT stages with **no** per-stage clamping.

    ``a`` is an ``(R, m)`` or ``(R, m, lanes)`` stack, one stage per
    twiddle view; spans double.

    The twiddled half of every butterfly is freshly reduced (``< q``),
    so lane magnitudes grow by exactly ``q`` per stage: entering at
    ``<= q - 1``, the bound after stage ``s`` is ``(s + 2) * q - 1``,
    i.e. ``(log2(n) + 1) * q - 1`` inclusive after the final stage.
    Eligibility — every intermediate, including the caller's fused
    scaling product against that final bound, fitting uint64 — is
    decided by :func:`repro.analysis.bounds.unclamped_dit_ok`; do not
    call this without that gate.  Skipping the clamps halves the ufunc
    dispatches of the clamped pass, which dominates for short limb
    stacks.  Entry values must be ``< q``; callers finish with one true
    ``%`` (usually fused into the ``n^{-1}`` scaling).  A transform run
    as two calls grows the same way: the second call enters at the
    first call's exit bound.
    """
    rows, lanes = a.shape[0], a.shape[2:]
    for tw in tw_stages:
        length = tw.shape[2]
        blocks = a.reshape(rows, -1, 2 * length, *lanes)
        u = blocks[:, :, :length]
        vin = blocks[:, :, length:]
        # The span-1 stage's single twiddle is omega**0 == 1: copy the
        # half, which the difference store overwrites before the sum.
        if length == 1:
            v = vin.copy()
        else:
            v = vin * tw
            v %= q3                                # < q
        np.subtract(u + q3, v, out=vin)            # positive, < M + q
        u += v                                     # < M + q
