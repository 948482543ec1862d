"""RNS digit-decomposition keyswitching with one special prime.

A keyswitch converts a polynomial known under key ``s_from`` into a
2-part ciphertext under ``s_to``.  We use the per-prime digit gadget:
the digits of ``x`` are its raw residues ``[x]_{q_i}`` (centered), and
the gadget vector is the CRT-idempotent family ``B_i`` of the full
chain, pre-multiplied by the special prime ``P``:

``ksk_i = (-a_i s_to + e_i + P * B_i * s_from,  a_i)  mod (Q_L * P)``

Because ``sum_{i <= level} [x]_{q_i} B_i === x`` modulo any level prefix
of the chain, one key works at **every** level — no per-level keys.
The noise added is ``~ sum_i x_i e_i / P``, small since digits are at
most ``q_i / 2`` in magnitude and ``P ~ q_i``.

This is the computation pattern the paper's keyswitch workload refers
to (§II-A): per digit, a batch of NTTs to re-express the digit in every
limb, then element-wise multiply-accumulates — plus the ModDown by
``P`` at the end.  The implementation dispatches it that way too: all
``L * L`` digit-row NTTs (each digit skips its own limb) go to the
backend as **one** batch, and the per-digit products accumulate in
place over the full residue matrices with a single final reduction;
the ModDown (and the rescale) is ``R`` row NTTs on every executor.  A
backend may go one step further and offer the keyswitch
(``keyswitch_apply``) — of one
polynomial, or of several Galois images of it with the digit NTT batch
paid once (hoisted rotations): one slot, one walk — and the ModDown /
rescale division (``drop_top_limb``) as one kernel call each (a
checking ``IntegrityBackend`` offers them checked from inside);
:func:`hoisted_keyswitch` (which :func:`apply_keyswitch` calls with one
key) and :func:`_divide_by_top_limb` take those slots unless a fault
hook needs the phases, and the phase-by-phase functions below stay the
path of every other case and the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro import obs
from repro.analysis.bounds import (
    centered_lift_lazy_ok,
    keyswitch_lazy_accumulate_ok,
)
from repro.arith.modular import mod_inverse
from repro.fault.injector import current_fault_hook
from repro.fhe.backend import get_backend
from repro.fhe.params import CkksParams
from repro.fhe.polynomial import RnsPoly, reduce_rows
from repro.fhe.rns import RnsBasis, get_basis
from repro.fhe.sampling import sample_gaussian, sample_uniform_poly
from repro.ntt.negacyclic import check_host_moduli


@dataclass(eq=False)
class KeySwitchKey:
    """One digit-decomposed keyswitch key (relinearization or Galois).

    Compared and hashed by identity.  Per-key derived data (the
    integrity layer's spare-modulus image) is weakly keyed on
    :attr:`block`, the one array every keyswitch path is handed.
    """

    #: The key's only storage: one contiguous ``(D, 2, L+1, n)`` uint64
    #: array over the full basis ``Q_L * P``, evaluation domain;
    #: ``block[i, 0]`` / ``block[i, 1]`` are digit ``i``'s ``b_i`` /
    #: ``a_i`` — the layout the compiled keyswitch reads in place.
    block: np.ndarray = field(repr=False)

    @property
    def num_digits(self) -> int:
        return len(self.block)


def _fused_slot(name: str):
    """The active backend's optional fused kernel ``name``, or None —
    also None while a fault hook is installed: the injection sites live
    between the phases a fused kernel runs in one call.  (A checking
    ``IntegrityBackend`` exposes ``keyswitch_apply`` / ``drop_top_limb``
    in their checked form only, and neither ``keyswitch_inner_product``
    nor ``tensor_product``.)"""
    if current_fault_hook() is not None:
        return None
    return getattr(get_backend(), name, None)


def _full_primes(params: CkksParams) -> tuple[int, ...]:
    return params.primes + (params.special_prime,)


def generate_keyswitch_key(
    params: CkksParams,
    s_from_eval_full: RnsPoly,
    s_to_eval_full: RnsPoly,
    rng: np.random.Generator,
    error_scale: int = 1,
) -> KeySwitchKey:
    """Build the digit keys taking ``s_from`` to ``s_to``.

    Both secrets must be given over the full basis (chain + special) in
    the evaluation domain.  ``error_scale`` multiplies the key errors —
    BGV keys need errors that are multiples of the plaintext modulus so
    keyswitch noise stays invisible modulo ``t``.
    """
    basis = get_basis(params.primes, params.special_prime)
    full = _full_primes(params)
    n = params.n
    p = params.special_prime
    rows = []  # per digit, the residues of (b_i, a_i)
    for i in range(params.levels):
        a = sample_uniform_poly(n, full, rng)
        e = RnsPoly.from_int_coeffs(
            sample_gaussian(n, params.error_std, rng) * error_scale, full)
        # P * B_i reduced in every limb of the full basis, as a broadcast
        # column over the secret's residue matrix.
        pb_col = np.array([
            (p % q) * (int(basis.idempotent_mod_chain[i][j])
                       if j < params.levels
                       else int(basis.idempotent_mod_special[i])) % q
            for j, q in enumerate(full)
        ], dtype=np.uint64)[:, None]
        q_col = np.array(full, dtype=np.uint64)[:, None]
        gadget = RnsPoly(s_from_eval_full.residues * pb_col % q_col,
                         full, is_eval=True)
        b = (-(a * s_to_eval_full)) + e + gadget
        rows.append((b.residues, a.residues))
    return KeySwitchKey(np.array(rows))


def decompose_digits(x: RnsPoly, params: CkksParams) -> list[RnsPoly]:
    """Digit-decompose an eval-domain chain polynomial.

    Digit ``i`` is the centered lift of ``[x]_{q_i}`` re-expressed over
    every chain limb of ``x``'s level plus the special prime, in the
    evaluation domain.  All ``L`` centered lifts reduce against the
    target basis in one ``(L, L+1, n)`` broadcast, and the ``L * L`` rows
    off its own limbs go to the backend as a **single** forward-NTT
    batch — the NTT batch the accelerator speeds up, dispatched as one
    unit instead of one call per residue row.
    """
    # Phase 1 of the §II-A keyswitch: digit extraction (the inverse
    # NTT back to coefficients plus the centered-lift broadcast).
    with obs.span("keyswitch.decompose", cat=obs.CAT_PHASE,
                  limbs=x.num_limbs, n=x.n):
        coeff = x.to_coeff()
        level_primes = x.primes
        target = level_primes + (params.special_prime,)
        lcount = len(level_primes)
        tcount = len(target)
        evals = np.empty((lcount, tcount, x.n), dtype=np.uint64)
        # Digit i needs no transform in its own limb: the centered lift is
        # congruent to the original residue row mod q_i, and forward(inverse)
        # is an exact identity — so NTT(digit_i mod q_i) == x.residues[i]
        # bit-for-bit.  Only the off-diagonal (i, j != i) rows hit the NTT.
        for i in range(lcount):
            evals[i, i] = x.residues[i]
        off_diag = [(i, j) for i in range(lcount) for j in range(tcount)
                    if j != i]
        if centered_lift_lazy_ok(max(level_primes), min(target)):
            # |centered| <= q_i/2 < every target prime (equal-width chains),
            # so reduction mod t_j is res[i] + (t_j - q_i) when res[i] is in
            # the upper half — pure uint64 with wraparound, no int64 `%`.
            res = coeff.residues
            half_col = np.array([q // 2 for q in level_primes],
                                dtype=np.uint64)[:, None]
            upper = res > half_col
            src = [i for i, _ in off_diag]
            offsets = np.array(
                [(target[j] - level_primes[i]) % (1 << 64) for i, j in off_diag],
                dtype=np.uint64)[:, None]
            rows = res[src]
            rows += offsets * upper[src]
        else:
            q_col = np.array(level_primes, dtype=np.int64)[:, None]
            res = coeff.residues.astype(np.int64)
            centered = np.where(res > q_col // 2, res - q_col, res)
            rows = np.stack([
                (centered[i] % np.int64(target[j])).astype(np.uint64)
                for i, j in off_diag
            ])
    # Phase 2: the digit NTT batch — all L*L off-diagonal rows in
    # one dispatch, the batch the accelerator accelerates.
    with obs.span("keyswitch.ntt", cat=obs.CAT_PHASE, rows=len(off_diag)):
        batch = get_backend().forward_ntt_batch(
            rows, tuple(target[j] for _, j in off_diag))
    for r, (i, j) in enumerate(off_diag):
        evals[i, j] = batch[r]
    return [RnsPoly(evals[i], target, is_eval=True) for i in range(lcount)]


def accumulate_keyswitch(
    digits: list[RnsPoly], ksk: KeySwitchKey, keep: list[int],
    primes: tuple[int, ...],
) -> tuple[RnsPoly, RnsPoly]:
    """Fused multiply-accumulate of digits against the key pairs.

    Accumulates ``sum_i digit_i * b_i`` and ``sum_i digit_i * a_i`` in
    place over the ``(L+1, n)`` residue matrices with lazy reduction:
    when the analyzer proves the full unreduced accumulator
    ``num_digits * (max(q)-1)**2`` fits uint64 (true for the host's
    primes below ``2**30`` up to 16 digits) the raw products accumulate
    unreduced and each sum takes exactly **one** final reduction.
    Otherwise each product, below ``2**60``, is reduced as it is added.
    ``keep`` selects the key limbs matching the digits' basis (level
    prefix plus special prime).
    """
    # Phase 3: the per-digit inner product (element-wise MACs over the
    # (L+1, n) residue matrices, lazily reduced when provable).
    with obs.span("keyswitch.inner_product", cat=obs.CAT_PHASE,
                  digits=len(digits)) as phase:
        q_col = np.array(primes, dtype=np.uint64)[:, None]
        maxq = max(primes)
        lazy = keyswitch_lazy_accumulate_ok(len(digits), maxq)
        # The key stacks are views into the key block at the top level
        # (keep is the full basis), one gather per read below it.
        key = ksk.block[:len(digits)]
        whole = keep == list(range(key.shape[2]))
        inner = _fused_slot("keyswitch_inner_product")
        if inner is not None and digits:
            # Fused compiled path: one kernel call over the (D, L+1, n)
            # stacks.
            stacks = key if whole else key[:, :, keep]
            accs = inner(np.stack([d.residues for d in digits]),
                         stacks[:, 0], stacks[:, 1], primes)
            if accs is not None:  # None: the slot declined (no provider)
                phase.set(lazy=lazy, fused=True)
                return (RnsPoly(accs[0], primes, is_eval=True),
                        RnsPoly(accs[1], primes, is_eval=True))
        acc0 = np.zeros_like(digits[0].residues)
        acc1 = np.zeros_like(digits[0].residues)
        for i, digit in enumerate(digits):
            b_i, a_i = key[i] if whole else key[i][:, keep]
            if lazy:
                acc0 += digit.residues * b_i
                acc1 += digit.residues * a_i
            else:
                # Each summand is reduced (< q) and the running sum is kept
                # < q, so the uint64 addition transient stays below 2q.
                acc0 = (acc0 + digit.residues * b_i % q_col) % q_col
                acc1 = (acc1 + digit.residues * a_i % q_col) % q_col
        if lazy:
            hook = current_fault_hook()
            if hook is not None:
                # Expose the unreduced lazy accumulators to injection (site
                # "keyswitch") before the spare-modulus verification runs.
                hook.corrupt_buffer("keyswitch", acc0)
                hook.corrupt_buffer("keyswitch", acc1)
            check = getattr(get_backend(), "check_keyswitch_accumulation", None)
            if check is not None:
                # Spare-modulus (redundant-residue) verification: each exact
                # uint64 accumulator must agree with the independent sum of
                # spare-channel products.  A False verdict (retry/degrade
                # policies) recomputes that accumulator on the per-step
                # reduced channel.
                accs = [acc0, acc1]
                for part, ok in enumerate(check(acc0, acc1, digits, ksk, keep)):
                    if not ok:
                        accs[part] = sum(
                            d.residues * ksk.block[i, part][keep] % q_col
                            for i, d in enumerate(digits))
                acc0, acc1 = accs
        reduce_rows(acc0, primes)
        reduce_rows(acc1, primes)
        phase.set(lazy=lazy)
        return (RnsPoly(acc0, primes, is_eval=True),
                RnsPoly(acc1, primes, is_eval=True))


def apply_keyswitch(
    x: RnsPoly, ksk: KeySwitchKey, params: CkksParams
) -> tuple[RnsPoly, RnsPoly]:
    """Switch ``x`` (eval domain, chain limbs only) to the target key.

    Returns the two accumulated parts still over ``chain + special``;
    follow with :func:`mod_down` to drop the special prime.  The one-key,
    no-rotation call of :func:`hoisted_keyswitch`.
    """
    return hoisted_keyswitch(x, [ksk], None, params)[0]


def hoisted_keyswitch(
    x: RnsPoly, keys: list[KeySwitchKey], galois: list[int] | None,
    params: CkksParams,
) -> list[tuple[RnsPoly, RnsPoly]]:
    """Switch the Galois images ``sigma_k(x)``, ``k`` in ``galois``, each
    under its own key, paying the digit NTT batch once (``galois`` None:
    switch ``x`` itself under each key).

    ``[g]`` is bit for bit the keyswitch of ``x.automorphism(galois[g])``
    under ``keys[g]``: the Galois action is one slot permutation in
    every limb, so it commutes with the per-prime digits.  A backend
    with the row-fused ``keyswitch_apply`` slot walks the digit rows
    once for all the keys in one kernel call — unless :func:`_fused_slot`
    withholds it or the slot declines (a gate refused, or its integrity
    check failed under a replaying policy); then, and on every other
    backend, :func:`phased_keyswitches` runs.  No keys: nothing is
    computed.
    """
    if not keys:
        return []
    keep = list(range(x.num_limbs)) + [params.levels]  # limbs of Q_l * P
    primes = x.primes + (params.special_prime,)
    fused = _fused_slot("keyswitch_apply")
    if fused is not None and x.is_eval:
        accs = fused(x.residues, primes, [key.block for key in keys], keep,
                     galois)
        if accs is not None:
            return [(RnsPoly(acc0, primes, is_eval=True),
                     RnsPoly(acc1, primes, is_eval=True))
                    for acc0, acc1 in zip(*accs)]
    return phased_keyswitches(x, keys, galois, keep, primes)


def galois_images(polys: list[RnsPoly], k: int) -> list[RnsPoly]:
    """``polys`` under ``X -> X^k``: the permutation phase of an HRot."""
    with obs.span("hrot.automorphism", cat=obs.CAT_PHASE, galois_k=k):
        return [poly.automorphism(k) for poly in polys]


def phased_keyswitches(
    x: RnsPoly, keys, galois: list[int] | None, keep: list[int],
    primes: tuple[int, ...],
) -> list[tuple[RnsPoly, RnsPoly]]:
    """:func:`hoisted_keyswitch` phase by phase: permute, decompose, MAC.

    One Galois element permutes ``x`` (``L`` rows) before the one
    :func:`decompose_digits`, several permute its digits (``L`` rows of
    ``L + 1`` limbs each); then :func:`accumulate_keyswitch` per key.
    The oracle of the ``keyswitch_apply`` slot (``primes``: the limbs of
    ``x``, then the special prime)."""
    if galois is not None and len(galois) == 1:
        [x], galois = galois_images([x], galois[0]), None
    # (decompose_digits reads nothing of its parameter set but this.)
    digits = decompose_digits(x, SimpleNamespace(special_prime=primes[-1]))
    return [accumulate_keyswitch(
        digits if galois is None else galois_images(digits, galois[g]),
        key, keep, primes) for g, key in enumerate(keys)]


def _divide_by_top_limb(poly: RnsPoly, inv_table: np.ndarray,
                        plaintext_modulus: int | None = None) -> RnsPoly:
    """Drop the last limb with rounding: ``(x - delta) / q_top``, in
    ``R`` row NTTs: the top row's inverse, then ``delta``, lifted into
    the ``R - 1`` remaining limbs, goes forward as one batch and is
    subtracted in the evaluation domain (a coefficient-domain input is
    divided as it is and sent forward) — the slot's schedule.

    ``delta === x (mod q_top)``; with ``plaintext_modulus`` set, ``delta``
    is additionally forced to ``0 (mod t)`` so the division leaves exact
    BGV plaintexts untouched (CKKS treats the rounding as approximation
    noise and skips the correction).  That uncorrected division is one
    kernel call on a backend with the ``drop_top_limb`` slot, under the
    same conditions as :func:`apply_keyswitch`'s fused slot.  ``t``, like
    every host modulus, must be below ``2**30``.
    """
    if plaintext_modulus is not None:
        check_host_moduli((plaintext_modulus,))
    fused = _fused_slot("drop_top_limb")
    if fused is not None and plaintext_modulus is None and poly.is_eval:
        out = fused(poly.residues, poly.primes, inv_table)
        if out is not None:
            return RnsPoly(out, poly.primes[:-1], is_eval=True)
    top = poly.num_limbs - 1
    q_top = poly.primes[top]
    tail = RnsPoly(poly.residues[top:], (q_top,),
                   poly.is_eval).to_coeff().centered_limb(0)
    delta = tail
    if plaintext_modulus is not None:
        # int64: |tail| < q_top/2 < 2**29 and the correction magnitude is
        # <= t/2 < 2**29 (delta below 2**59).
        t = plaintext_modulus
        correction = (-tail * mod_inverse(q_top, t)) % t
        correction = np.where(correction > t // 2, correction - t, correction)
        delta = tail + correction * q_top
    chain = poly.limbs_prefix(top)
    q_col = np.array(chain.primes, dtype=np.int64)[:, None]
    d = delta[None, :]
    if plaintext_modulus is None and centered_lift_lazy_ok(
            q_top, min(chain.primes)):
        # CKKS rescale/moddown: |delta| <= q_top/2 below every chain
        # prime, so reduction is a conditional add.
        lifted = (d + q_col * (d < 0)).astype(np.uint64)
    else:
        lifted = (d % q_col).astype(np.uint64)
    if poly.is_eval:
        lifted = get_backend().forward_ntt_batch(lifted, chain.primes)
    qq = q_col.astype(np.uint64)
    inv_col = np.asarray(inv_table, dtype=np.uint64)[:, None]
    s = chain.residues + (qq - lifted)  # < 2q: one conditional subtract
    np.minimum(s, s - qq, out=s)
    out = reduce_rows(s * inv_col, chain.primes)
    if not poly.is_eval:
        out = get_backend().forward_ntt_batch(out, chain.primes)
    return RnsPoly(out, chain.primes, is_eval=True)


def mod_down(t: RnsPoly, basis: RnsBasis,
             plaintext_modulus: int | None = None) -> RnsPoly:
    """Divide by the special prime with rounding: ``(t - [t]_p) / p``.

    Consumes a poly whose last limb is the special prime; returns the
    chain-only poly in the evaluation domain.  ``plaintext_modulus``
    enables the exact-scheme correction (see :func:`_divide_by_top_limb`).
    """
    if t.primes[-1] != basis.special_prime:
        raise ValueError("mod_down expects the special prime as last limb")
    inv_table = basis.special_inv_mod_chain[:t.num_limbs - 1]
    # Phase 4: ModDown by the special prime (top-row inverse NTT, the
    # lifted rows' forward batch, division in the evaluation domain).
    with obs.span("keyswitch.mod_down", cat=obs.CAT_PHASE,
                  limbs=t.num_limbs):
        return _divide_by_top_limb(t, inv_table, plaintext_modulus)


def rescale(poly: RnsPoly, basis: RnsBasis) -> RnsPoly:
    """Drop the top chain limb with rounding: ``(x - [x]_{q_l}) / q_l``.

    The CKKS rescale after multiplication; same arithmetic as
    :func:`mod_down` but dividing by the last *chain* prime.
    """
    if poly.num_limbs < 2:
        raise ValueError("cannot rescale below one limb")
    q_top = poly.primes[poly.num_limbs - 1]
    inv_table = basis.prime_inv_mod_others(basis.primes.index(q_top))
    with obs.span("ckks.rescale", cat=obs.CAT_PHASE, limbs=poly.num_limbs):
        return _divide_by_top_limb(poly, inv_table)


def mod_switch_exact(poly: RnsPoly, basis: RnsBasis,
                     plaintext_modulus: int) -> RnsPoly:
    """BGV modulus switch: drop the top chain prime while keeping the
    carried value exact modulo ``t`` (up to the tracked ``q_top^{-1}``
    plaintext factor)."""
    if poly.num_limbs < 2:
        raise ValueError("cannot modulus-switch below one limb")
    q_top = poly.primes[poly.num_limbs - 1]
    inv_table = basis.prime_inv_mod_others(basis.primes.index(q_top))
    return _divide_by_top_limb(poly, inv_table, plaintext_modulus)
