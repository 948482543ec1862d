"""Analyzer-derived gates for the production fast paths.

These functions are the **single source of truth** for the lazy-reduction
eligibility decisions that used to live as hand-coded inequalities next
to the kernels:

* ``(log2(n) + 1) * q**2 < 2**64`` guarding the unclamped DIT pass in
  :mod:`repro.ntt.cooley_tukey` / :mod:`repro.ntt.negacyclic` is now
  :func:`unclamped_dit_ok`, backed by the full symbolic plan analysis
  (:func:`repro.analysis.stage_plans.analyze_batched_inverse`) — every
  intermediate of the plan, including the fused final scaling product,
  must fit uint64.
* ``num_digits * max(q)**2 < 2**64`` guarding the fused keyswitch
  accumulation in :mod:`repro.fhe.keyswitch` is now
  :func:`keyswitch_lazy_accumulate_ok`.
* the uint64 fit of the integrity layer's checksum dot products
  (:mod:`repro.fault.integrity`) is :func:`checksum_dot_lazy_ok`.
* the word reductions of ``kernels.c`` — the fold of any uint64 word
  and the w-bit Barrett of a product of two reduced words, both with
  32 x 32 -> 64 products only — are :func:`fold_ok` and
  :func:`barrett_w_ok`.
* ``max(level_primes) // 2 < min(target)`` and ``q_top // 2 <
  min(chain)`` guarding the conditional-add centered lifts in
  :mod:`repro.fhe.keyswitch` are both :func:`centered_lift_lazy_ok`,
  shared with the row-fused compiled keyswitch.

The plan-backed gates are ``lru_cache``'d: the analyses are O(log n)
exact-integer arithmetic, and the hot paths see a dictionary hit after
the first call for a given shape.

The derived gates are *never stricter in the wrong direction* than the
hand-coded ones they replace: the exact binding product for the
unclamped DIT plan is ``((log2(n)+1)q - 1)(q - 1)``, slightly below the
old ceiling ``(log2(n)+1) q**2``, so every previously-eligible modulus
remains eligible and a few boundary moduli gain the fast path — with a
machine-checked proof instead of a comment.
"""

from __future__ import annotations

from functools import lru_cache

from repro.analysis.intervals import U64_MAX
from repro.analysis.stage_plans import (
    analyze_barrett_w,
    analyze_batched_inverse,
    analyze_dif_lazy,
    analyze_dit_lazy,
    analyze_fold,
    analyze_keyswitch_accumulate,
    analyze_shoup_scale,
)


@lru_cache(maxsize=1024)
def unclamped_dit_ok(log_n: int, max_q: int) -> bool:
    """May the clamp-free DIT pass run for ``n = 2**log_n`` and moduli up
    to ``max_q``?

    True iff the symbolic plan analysis proves every intermediate of
    ``dit_stages_unclamped`` *plus* the fused final scaling multiply
    fits uint64.
    """
    return analyze_batched_inverse(log_n, max_q, unclamped=True).ok


@lru_cache(maxsize=1024)
def unclamped_dit_lane_bound(log_n: int, max_q: int) -> int:
    """Exact inclusive lane bound after the unclamped DIT stages:
    ``(log_n + 1) * max_q - 1`` for a reduced entry (derived, not
    assumed)."""
    report = analyze_batched_inverse(log_n, max_q, unclamped=True)
    return report.stage_bounds[-1]


@lru_cache(maxsize=1024)
def keyswitch_lazy_accumulate_ok(num_digits: int, max_q: int) -> bool:
    """May ``num_digits`` digit-by-key products accumulate unreduced in
    uint64 before a single final ``%``?

    True iff the accumulator's exact bound ``num_digits * (max_q - 1)**2``
    (and every partial sum) fits uint64.
    """
    if num_digits == 0:
        return True
    return analyze_keyswitch_accumulate(num_digits, max_q, lazy=True).ok


@lru_cache(maxsize=1024)
def ntt_shoup_ok(log_n: int, max_q: int) -> bool:
    """May the mod-free Shoup butterfly variants run for this shape?

    True iff the Shoup plans verify end to end on the 32-bit lane
    words of ``kernels.c`` — the analyzer's ``S002``/``S003``
    preconditions (``q < 2**30``, every multiplicand below the ``2**32``
    precision radix) checked at every stage and at the pointwise psi
    fold / unfold (also where ``n <= 2`` has no twiddled stage), and
    every lane sum, difference and Shoup low product below ``2**32``
    (``S001``).  The forward stages and the scaling enter at ``2q - 1``,
    the inverse stages reduced.  The compiled kernels' gate.
    """
    fwd = analyze_dif_lazy(log_n, max_q, shoup=True, entry_hi=2 * max_q - 1,
                           word_bits=32)
    inv = analyze_dit_lazy(log_n, max_q, shoup=True, entry_hi=max_q - 1,
                           word_bits=32)
    scale = analyze_shoup_scale(max_q, 2 * max_q - 1)
    return fwd.ok and inv.ok and scale.ok


@lru_cache(maxsize=1024)
def fold_ok(q: int) -> bool:
    """May ``kernels.c`` fold any uint64 word below ``q``?

    Its ``fold``: two Shoup products of 32-bit multiplicands through
    ``2**32 mod q``, < 4q in a 32-bit lane, then two conditional
    subtracts.

    True iff :func:`~repro.analysis.stage_plans.analyze_fold` verifies:
    the Shoup preconditions (``S002``/``S003``) for both halves and a
    reduced output.  Holds for every host modulus (``q < 2**30``); the
    compiled kernels' gate for the wide-word refolds, the keyswitch
    accumulator's finish and the spare channel, in the style of
    :func:`ntt_shoup_ok`.
    """
    return analyze_fold(q).ok


@lru_cache(maxsize=1024)
def barrett_w_ok(q: int) -> bool:
    """May ``kernels.c`` reduce a product by its w-bit Barrett?

    Its ``mulmod``, on a product of two words below ``q``: ``u =
    floor(2**(2w) / q)``, every product 32 x 32 -> 64, the remainder
    < 3q in a 32-bit lane before two conditional subtracts.

    True iff :func:`~repro.analysis.stage_plans.analyze_barrett_w`
    verifies for ``z < 2**(2w)``.  Holds for every host modulus; the
    tensor product's and the reduced keyswitch accumulator's gate.
    """
    return analyze_barrett_w(q).ok


@lru_cache(maxsize=1024)
def mul_fits_uint64(max_a: int, max_b: int) -> bool:
    """Does a raw elementwise product of values up to ``max_a``/``max_b``
    fit uint64?  The guard for *any* un-gated ``a * b % q`` fallback."""
    return max_a * max_b <= U64_MAX


def centered_lift_lazy_ok(max_from: int, min_to: int) -> bool:
    """May the centered lift of residues modulo primes up to
    ``max_from`` be reduced modulo primes down to ``min_to`` by one
    conditional add (``c + (q_to - q_from)`` on the upper half, pure
    uint64 with wraparound) in place of a signed ``%``?

    True iff the lift's magnitude bound ``max_from // 2`` lies below
    every target prime, so the lifted value is already in ``(-q_to,
    q_to)``.  Equal-width chains always pass; a mixed-width chain whose
    widest source prime is at least twice its narrowest target does
    not.  This one gate covers both lifts of a keyswitch — the digit
    lift of ``decompose_digits`` (every level prime against the level
    primes plus the special prime) and the top-limb lift of
    ``mod_down`` / ``rescale`` — on the numpy and the compiled path.
    """
    return max_from // 2 < min_to


#: Bit at which the integrity layer splits a checksum weight word.
CHECKSUM_HALF_BITS = 15


def checksum_dot_lazy_ok(n: int, max_x: int, q: int) -> bool:
    """May an ABFT checksum over ``n`` words up to ``max_x`` run in
    uint64 with one final ``%`` per dot product?

    The weight vector is reduced mod ``q`` and split at bit
    :data:`CHECKSUM_HALF_BITS` (15), so a half is at most
    ``max((q - 1) >> 15, 2**15 - 1)``.  True iff the unreduced dot
    product ``n * max_x * half`` fits uint64 and so does the
    recombination of the two reduced halves,
    ``(q - 1) + ((q - 1) << 15)``.  ``max_x`` is the measured maximum
    of the rows (a corrupted word need not be below ``q``), so the gate
    is a closed form, not a cached plan.
    """
    bits = CHECKSUM_HALF_BITS
    half = max((q - 1) >> bits, (1 << bits) - 1)
    return (n * max_x * half <= U64_MAX
            and (q - 1) + ((q - 1) << bits) <= U64_MAX)
