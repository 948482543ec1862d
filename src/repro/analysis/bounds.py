"""The gates of the production fast paths, as the inequalities they prove.

Every host modulus is below ``2**30`` (``HOST_MODULUS_LIMIT``, enforced
by :func:`repro.ntt.negacyclic.check_host_moduli` at every host entry).
That one limit keeps every lazy lane of ``kernels.c`` and of numpy's
stages inside its word: a lazy lane's worst transient ``4q - 1`` fits
32 bits, and so do the ``fold`` sum (``< 4q``) and the w-bit Barrett
remainder (``< 3q``); ``tests/test_analysis_bounds_edges.py`` holds the
limit to those bounds.  What the limit does not decide is a gate here,
a closed form that the decision reads directly:

* the clamp-free DIT inverse of :mod:`repro.ntt.cooley_tukey` /
  :mod:`repro.ntt.negacyclic` is :func:`unclamped_dit_ok`;
* the unreduced accumulation of the keyswitch digit products in
  :mod:`repro.fhe.keyswitch` and the compiled kernels is
  :func:`keyswitch_lazy_accumulate_ok`;
* the uint64 fit of the integrity layer's checksum dot products
  (:mod:`repro.fault.integrity`) is :func:`checksum_dot_lazy_ok`;
* ``max(level_primes) // 2 < min(target)`` and ``q_top // 2 <
  min(chain)`` guarding the conditional-add centered lifts in
  :mod:`repro.fhe.keyswitch` are both :func:`centered_lift_lazy_ok`,
  shared with the row-fused compiled keyswitch.

Each gate is a few integer operations, asked once per batch plan or
once per keyswitch, so none is cached.
"""

from __future__ import annotations

U64_MAX: int = (1 << 64) - 1


def unclamped_dit_ok(log_n: int, max_q: int) -> bool:
    """May the clamp-free DIT pass run for ``n = 2**log_n`` and moduli up
    to ``max_q``?

    Without per-stage clamps a lane grows by exactly ``+q`` per stage
    from a reduced entry, so after ``log_n`` stages it is at most
    ``(log_n + 1) q - 1``; the fused final scaling multiplies it by a
    reduced factor.  True iff that product,
    ``((log_n + 1) q - 1)(q - 1)``, fits uint64 (every earlier sum and
    product is smaller).
    """
    return ((log_n + 1) * max_q - 1) * (max_q - 1) <= U64_MAX


def keyswitch_lazy_accumulate_ok(num_digits: int, max_q: int) -> bool:
    """May ``num_digits`` digit-by-key products accumulate unreduced in
    uint64 before a single final ``%``?

    True iff the accumulator's exact bound ``num_digits * (max_q - 1)**2``
    fits uint64 (every partial sum and product is smaller).
    """
    return num_digits * (max_q - 1) ** 2 <= U64_MAX


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
