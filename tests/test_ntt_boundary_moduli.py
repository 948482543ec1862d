"""Boundary-modulus regression tests for the lazy-reduction fast paths.

Three regimes matter, each with its own eligibility gate:

* ``q < 2**30`` — Shoup companions available, unclamped DIT usually ok;
* ``2**30 <= q < 2**31`` — vectorized lazy paths without Shoup; the
  unclamped DIT gate starts refusing as ``(log2(n)+1) * q**2`` crosses
  uint64;
* ``q >= 2**31`` — object-dtype scalar fallback only.

Every test asserts **bit-equality** between whichever fast path the gate
selects and the exact object-dtype reference, so a wrong gate (too
permissive *or* silently changing results) fails loudly.
"""

import numpy as np
import pytest

from repro.analysis.bounds import (
    keyswitch_lazy_accumulate_ok,
    mul_fits_uint64,
    unclamped_dit_ok,
    unclamped_dit_lane_bound,
)
from repro.arith.primes import find_ntt_prime, is_prime
from repro.fhe.keyswitch import KeySwitchKey, accumulate_keyswitch
from repro.fhe.polynomial import RnsPoly
from repro.ntt.negacyclic import BatchedNegacyclicNtt, NegacyclicNtt
from repro.ntt.tables import get_tables

N = 64
LOG_N = 6


def _prime_just_above(order: int, floor: int) -> int:
    """Smallest NTT-friendly prime strictly above ``floor``."""
    q = floor + 1 + (-floor % order)  # first q > floor with q ≡ 1 (mod order)
    while not (q % order == 1 and is_prime(q)):
        q += order
    return q


@pytest.fixture(scope="module")
def boundary_primes():
    return {
        "below_2^30": find_ntt_prime(2 * N, 30),
        "above_2^30": _prime_just_above(2 * N, 1 << 30),
        "below_2^31": find_ntt_prime(2 * N, 31),
    }


def _rand_rows(primes, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([
        rng.integers(0, q, size=N, dtype=np.uint64) for q in primes
    ])


class TestGateAgainstHandFormula:
    def test_never_stricter_than_old_gate(self):
        """Every (log_n, q) the old hand inequality accepted, the
        analyzer-derived gate must also accept."""
        for log_n in (1, 6, 12, 16):
            for bits in (20, 28, 30, 31):
                try:
                    q = find_ntt_prime(1 << (log_n + 1), bits)
                except ValueError:
                    continue  # no prime of that width for this order
                old = (log_n + 1) * q * q < (1 << 64)
                new = unclamped_dit_ok(log_n, q)
                assert not (old and not new), (log_n, q)

    def test_refuses_too_wide_prime(self, boundary_primes):
        # 7 * (2^31)^2 > 2^64: the widest vectorized prime must not get
        # the clamp-free pass at n = 64.
        q = boundary_primes["below_2^31"]
        assert not unclamped_dit_ok(LOG_N, q)

    def test_accepts_shoup_edge_prime(self, boundary_primes):
        q = boundary_primes["below_2^30"]
        assert unclamped_dit_ok(LOG_N, q)
        # Derived bound is the exact +q-per-stage growth formula.
        assert unclamped_dit_lane_bound(LOG_N, q) == (LOG_N + 1) * q - 1

    def test_gate_flips_with_depth(self):
        """A modulus eligible at small n loses eligibility once the
        +q-per-stage growth makes the final product overflow."""
        q = find_ntt_prime(1 << 17, 31)
        assert unclamped_dit_ok(1, q) or not unclamped_dit_ok(16, q)
        # (log_n+1) * q^2 monotonically grows with log_n: once refused,
        # stays refused.
        refused = False
        for log_n in range(1, 17):
            ok = unclamped_dit_ok(log_n, q)
            if refused:
                assert not ok
            refused = refused or not ok


class TestBoundaryModuliBitEquality:
    @pytest.mark.parametrize("which", ["below_2^30", "above_2^30",
                                       "below_2^31"])
    def test_batched_matches_scalar_reference(self, boundary_primes, which):
        q = boundary_primes[which]
        batched = BatchedNegacyclicNtt(N, (q,))
        reference = NegacyclicNtt(N, q)
        rows = _rand_rows((q,), seed=7)

        fwd = batched.forward(rows)
        ref_fwd = np.asarray(
            [int(v) for v in reference.forward(rows[0])], dtype=np.uint64)
        np.testing.assert_array_equal(fwd[0], ref_fwd)

        inv = batched.inverse(fwd)
        np.testing.assert_array_equal(inv, rows)

    @pytest.mark.parametrize("which", ["below_2^30", "above_2^30"])
    def test_unclamped_and_clamped_kernels_agree(self, boundary_primes,
                                                 which):
        """Where both are legal, the clamp-free DIT pass and the lazy
        clamped pass are the same function mod q — bit-equal after the
        final reduction."""
        from repro.ntt.cooley_tukey import (
            _stacked_stage_twiddles,
            dit_stages_lazy,
            dit_stages_unclamped,
        )

        q = boundary_primes[which]
        assert unclamped_dit_ok(LOG_N, q)
        tables = [get_tables(N, q)]
        q3 = np.array([[q]], dtype=np.uint64)[:, :, None]
        tw = _stacked_stage_twiddles(tables, "dit")
        rows = _rand_rows((q,), seed=11)

        fast = rows.copy()
        dit_stages_unclamped(fast, q3, tw)
        clamped = rows.copy()
        dit_stages_lazy(clamped, q3, 2 * q3, tw, None)
        np.testing.assert_array_equal(fast % np.uint64(q),
                                      clamped % np.uint64(q))

    def test_too_wide_prime_takes_clamped_path(self, boundary_primes):
        q = boundary_primes["below_2^31"]
        batched = BatchedNegacyclicNtt(N, (q,))
        assert not batched._dit_unclamped  # gate refused the fast pass
        rows = _rand_rows((q,), seed=13)
        np.testing.assert_array_equal(
            batched.inverse(batched.forward(rows)), rows)

    def test_mixed_width_stack_roundtrip(self, boundary_primes):
        primes = (boundary_primes["below_2^30"],
                  boundary_primes["above_2^30"])
        batched = BatchedNegacyclicNtt(N, primes)
        rows = _rand_rows(primes, seed=17)
        np.testing.assert_array_equal(
            batched.inverse(batched.forward(rows)), rows)


class TestKeyswitchAccumulateFallbacks:
    def _synthetic(self, primes, num_digits, seed=0):
        rng = np.random.default_rng(seed)
        n = 16
        digits = []
        block = np.empty((num_digits, 2, len(primes), n), dtype=np.uint64)
        for i in range(num_digits):
            res = np.stack([
                rng.integers(0, q, size=n, dtype=np.uint64) for q in primes])
            digits.append(RnsPoly(res, primes, is_eval=True))
            for part in (0, 1):  # b_i, then a_i
                block[i, part] = np.stack([
                    rng.integers(0, q, size=n, dtype=np.uint64)
                    for q in primes])
        return digits, KeySwitchKey(block)

    def _reference(self, digits, ksk, keep, primes):
        q_col = np.array(primes, dtype=object)[:, None]
        acc0 = np.zeros_like(digits[0].residues, dtype=object)
        acc1 = np.zeros_like(digits[0].residues, dtype=object)
        for i, digit in enumerate(digits):
            b_i, a_i = ksk.block[i][:, keep].astype(object)
            d = digit.residues.astype(object)
            acc0 = (acc0 + d * b_i) % q_col
            acc1 = (acc1 + d * a_i) % q_col
        return acc0.astype(np.uint64), acc1.astype(np.uint64)

    @pytest.mark.parametrize("bits,num_digits", [
        (28, 3),    # lazy accumulate (toy regime)
        (31, 16),   # product fits uint64, but 16 accumulations do not
        (40, 3),    # a single raw product would already wrap uint64
    ])
    def test_bit_equal_across_paths(self, bits, num_digits):
        primes = tuple(find_ntt_prime(64, bits, index=i) for i in range(2))
        keep = [0, 1]
        digits, ksk = self._synthetic(primes, num_digits, seed=bits)
        got0, got1 = accumulate_keyswitch(digits, ksk, keep, primes)
        want0, want1 = self._reference(digits, ksk, keep, primes)
        np.testing.assert_array_equal(got0.residues, want0)
        np.testing.assert_array_equal(got1.residues, want1)

    def test_gate_selects_expected_paths(self):
        q28 = find_ntt_prime(64, 28)
        q31 = find_ntt_prime(64, 31)
        q40 = find_ntt_prime(64, 40)
        assert keyswitch_lazy_accumulate_ok(3, q28)
        assert not keyswitch_lazy_accumulate_ok(16, q31)
        assert not keyswitch_lazy_accumulate_ok(3, q40)
        assert mul_fits_uint64(q31 - 1, q31 - 1)
        assert not mul_fits_uint64(q40 - 1, q40 - 1)

    def test_lazy_threshold_is_exact(self):
        """The gate accepts exactly up to D * (q-1)^2 <= 2^64 - 1."""
        q = (1 << 32) + 1  # (q-1)^2 == 2^64 exactly
        assert not keyswitch_lazy_accumulate_ok(1, q)
        q = 1 << 32  # (q-1)^2 < 2^64: one product fits, two do not
        assert keyswitch_lazy_accumulate_ok(1, q)
        assert not keyswitch_lazy_accumulate_ok(2, q)
