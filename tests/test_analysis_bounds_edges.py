"""Edge-of-validity tests for the production gates in analysis.bounds,
and for the host modulus limit that stands in for every other gate.

The gates answer "may the fast path run?" right at the boundaries the
paper's parameter space touches: the widest host modulus (just below
2^30, ``HOST_MODULUS_LIMIT``) and the degenerate smallest shapes
(log_n <= 1, a single keyswitch digit).  Every lazy word of
``kernels.c`` fits because of that limit alone, so the limit itself is
held to the closed-form word bounds of the kernels' reductions.
"""

import numpy as np
import pytest

from repro.analysis.bounds import (
    U64_MAX,
    centered_lift_lazy_ok,
    checksum_dot_lazy_ok,
    keyswitch_lazy_accumulate_ok,
    unclamped_dit_ok,
)
from repro.arith.primes import find_ntt_prime, find_ntt_primes, is_prime
from repro.ntt.negacyclic import (
    HOST_MODULUS_LIMIT,
    BatchedNegacyclicNtt,
    HostModulusError,
)

#: NTT primes for every n up to 2^17 on either side of 2^30: the
#: largest below it, and the smallest above it.
ORDER = 1 << 18
BELOW_2_30 = find_ntt_prime(ORDER, 30)
ABOVE_2_30 = next(q for q in range((1 << 30) + 1, 1 << 31, ORDER)
                  if is_prime(q))
Q28 = find_ntt_prime(512, 28)
Q30 = find_ntt_prime(512, 30)
Q31 = find_ntt_prime(512, 31)
#: The widest 32-bit lane word of ``kernels.c``.
U32_MAX = (1 << 32) - 1


class TestCompiledNttModulusEdge:
    """A batch plan, the one the compiled kernels run, is built exactly
    below 2^30, the host limit, and refused from 2^30 up, so no plan
    needs a word gate of its own."""

    def test_widest_vectorized_modulus_accepted(self):
        # Largest NTT-friendly prime below 2^30 for n=256 negacyclic.
        q = find_ntt_prime(512, 30)
        assert q == 1073738753 < HOST_MODULUS_LIMIT
        assert BatchedNegacyclicNtt(256, (q,)).primes == (q,)

    def test_32_bit_modulus_refused(self):
        q = find_ntt_prime(512, 32)
        assert q == 4294962689
        with pytest.raises(HostModulusError):
            BatchedNegacyclicNtt(256, (q,))

    def test_compiled_plan_edge_is_2_30(self):
        narrow = tuple(find_ntt_primes(ORDER, 30, 2))
        for n in (2, 64, 1024):
            for primes in (narrow, narrow + (ABOVE_2_30,), (ABOVE_2_30,),
                           tuple(find_ntt_primes(ORDER, 31, 2))):
                if max(primes) < HOST_MODULUS_LIMIT:
                    plan = BatchedNegacyclicNtt(n, primes)
                    assert plan.twf.shape == (len(primes), n - 1)
                    continue
                with pytest.raises(HostModulusError):
                    BatchedNegacyclicNtt(n, primes)
        with pytest.raises(ValueError, match="power of two"):
            BatchedNegacyclicNtt(48, narrow)

    def test_every_host_plan_is_proven(self):
        """The largest NTT prime below 2^30 at every n from 2 to 2^17 is
        a host modulus whose lazy lanes (< 4q) fit the 32-bit word, and
        its numpy inverse schedule is the closed form's: clamp-free
        through n = 2^15, where (16q - 1)(q - 1) still fits uint64, and
        clamped from 2^16."""
        for log_n in range(1, 18):
            q = find_ntt_prime(2 << log_n, 30)
            assert q < HOST_MODULUS_LIMIT and 4 * q - 1 <= U32_MAX
            assert unclamped_dit_ok(log_n, q) == (log_n <= 15), log_n


class TestDegenerateShapes:
    """log_n <= 1 and single-digit keyswitch must not over-reject."""

    def test_two_point_ntt_accepted(self):
        assert unclamped_dit_ok(1, 257)
        assert BatchedNegacyclicNtt(2, (257,)).inv_mode == 2

    def test_log_n_zero_does_not_raise(self):
        # A 1-point transform is vacuously safe for any sane modulus.
        assert unclamped_dit_ok(0, 257)

    def test_single_digit_keyswitch_accepted(self):
        assert keyswitch_lazy_accumulate_ok(1, find_ntt_prime(512, 31))

    def test_zero_digit_keyswitch_does_not_raise(self):
        assert keyswitch_lazy_accumulate_ok(0, find_ntt_prime(512, 31))


class TestGates:
    def test_unclamped_gate_matches_exact_product(self):
        for log_n in (6, 12, 16):
            for q in (Q28, Q30, Q31):
                exact = ((log_n + 1) * q - 1) * (q - 1) <= U64_MAX
                assert unclamped_dit_ok(log_n, q) == exact, (log_n, q)

    def test_keyswitch_bound_is_exact(self):
        q = Q28
        assert keyswitch_lazy_accumulate_ok(4, q)
        most = U64_MAX // (q - 1) ** 2
        assert keyswitch_lazy_accumulate_ok(most, q)
        assert not keyswitch_lazy_accumulate_ok(most + 1, q)


class TestChecksumDotGate:
    """The integrity layer's uint64 dot products: two 15-bit-split
    halves of a weight vector against ``n`` words (the side that fails
    runs in exact object arithmetic — tests/test_fault_integrity.py)."""

    N = 8192

    def test_repository_moduli_pass_on_reduced_rows(self):
        for bits in (28, 30, 31):
            q = find_ntt_prime(2 * self.N, bits)
            assert checksum_dot_lazy_ok(self.N, q - 1, q)

    def test_modulus_boundary_on_reduced_rows(self):
        def bound(q):
            return self.N * (q - 1) * ((q - 1) >> 15)

        lo, hi = 1 << 31, 1 << 40  # passes, fails
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if checksum_dot_lazy_ok(self.N, mid - 1, mid):
                lo = mid
            else:
                hi = mid
        assert bound(lo) <= U64_MAX < bound(hi)
        assert lo == 1 << 33  # n * q * (q >> 15) == 2**64 one word later

    def test_measured_word_boundary(self):
        q = find_ntt_prime(2 * self.N, 30)  # both halves 15 bits
        top = U64_MAX // (self.N * ((1 << 15) - 1))
        assert checksum_dot_lazy_ok(self.N, top, q)
        assert not checksum_dot_lazy_ok(self.N, top + 1, q)
        assert not checksum_dot_lazy_ok(self.N, 1 << 63, q)

    def test_recombination_boundary(self):
        # lo + (hi << 15) of two reduced halves: (q - 1) * (2**15 + 1).
        q = U64_MAX // ((1 << 15) + 1) + 1
        assert checksum_dot_lazy_ok(1, 0, q)
        assert not checksum_dot_lazy_ok(1, 0, q + 1)


class TestCenteredLiftEdge:
    """The conditional-add lift is sound iff the lift's magnitude bound
    ``max_from // 2`` is below every target prime."""

    def test_equal_width_chain_accepted(self):
        primes = find_ntt_primes(512, 30, 4)
        assert centered_lift_lazy_ok(max(primes), min(primes))

    def test_boundary_is_exact(self):
        q = find_ntt_prime(512, 30)
        assert centered_lift_lazy_ok(q, q // 2 + 1)
        assert not centered_lift_lazy_ok(q, q // 2)
        # A source twice as wide as the target is the first to fail.
        assert centered_lift_lazy_ok(2 * q - 1, q)
        assert not centered_lift_lazy_ok(2 * q, q)

    def test_gate_agrees_with_the_lift_it_guards(self):
        """On both sides of the boundary: the conditional add equals the
        signed ``%`` exactly when the gate accepts."""
        q_from = 1009
        centered = np.arange(q_from, dtype=np.int64)
        centered = np.where(centered > q_from // 2, centered - q_from,
                            centered)
        for q_to in (q_from // 2, q_from // 2 + 1, q_from, 4 * q_from + 1):
            added = centered + q_to * (centered < 0)
            exact = bool(np.array_equal(added, centered % q_to))
            assert centered_lift_lazy_ok(q_from, q_to) == exact

    def test_mixed_width_chain_refused_and_fused_slots_decline(self):
        n = 64
        small = find_ntt_prime(2 * n, 20)
        wide = tuple(find_ntt_primes(2 * n, 30, 2))
        # Narrow target under a wide source: refused either way round
        # the special prime sits.
        assert not centered_lift_lazy_ok(max(wide), small)
        # repro.fhe first: under REPRO_BACKEND=compiled its import pulls
        # in repro.kernels, not the other way round.
        import repro.fhe  # noqa: F401
        from repro.kernels import CompiledBackend

        backend = CompiledBackend()
        if backend.provider_name is None:
            return  # nothing to decline without a compiled provider
        rng = np.random.default_rng(0)
        for primes in ((wide[0], small, wide[1]), (small, wide[0], wide[1])):
            rows = np.stack([rng.integers(0, q, n, dtype=np.uint64)
                             for q in primes])
            key = rng.integers(0, small, (2, 2, 3, n), dtype=np.uint64)
            assert backend.keyswitch_apply(rows[:2], primes, [key],
                                           [0, 1, 2]) is None
        # q_top // 2 against the narrowest remaining prime.
        assert backend.drop_top_limb(rows, (small,) + wide, [1, 1]) is None
        assert backend.drop_top_limb(
            rows, wide + (small,), [1, 1]) is not None
        assert backend.kernel_invocations >= 1


class TestKernelWordReductions:
    """``kernels.c`` keeps its lanes in 32-bit words and reduces words by
    ``fold`` (any uint64) and by the w-bit Barrett ``mulmod`` (a product
    of two reduced words), every product 32 x 32 -> 64.  No gate guards
    any of it: ``HOST_MODULUS_LIMIT`` does, and these are the bounds it
    must keep."""

    @staticmethod
    def _host_moduli():
        """The largest host modulus, both ends of every width below the
        limit (odd, as the NTT primes are), and the NTT primes the
        kernels run."""
        yield HOST_MODULUS_LIMIT - 1
        for w in range(2, HOST_MODULUS_LIMIT.bit_length()):
            yield (1 << (w - 1)) + 1
            yield (1 << w) - 1
        yield from (BELOW_2_30, find_ntt_prime(1 << 14, 30),
                    find_ntt_prime(1 << 17, 30))

    @staticmethod
    def _barrett_remainder_bound(q):
        """The exact worst remainder ``z - est q`` of ``mulmod`` over
        ``z < 2**(2w)``: ``est >= ((z - 2**s1 + 1) u / 2**s1 - 2**s2 +
        1) / 2**s2`` with ``s1 = w - 1``, ``s2 = w + 1``, so the
        remainder is linear in ``z`` (coefficient >= 0, as ``q u <=
        2**(2w)``) and largest at the top word."""
        w = q.bit_length()
        s1, s2 = w - 1, w + 1
        u = (1 << (2 * w)) // q
        z_hi = (1 << (2 * w)) - 1
        bound = (z_hi * ((1 << (s1 + s2)) - q * u)
                 + q * u * ((1 << s1) - 1) + (q * ((1 << s2) - 1) << s1))
        return bound >> (s1 + s2)

    def test_the_host_limit_bounds_the_kernels_words(self):
        for q in self._host_moduli():
            assert q < HOST_MODULUS_LIMIT
            # A lazy butterfly lane (< 2q) sums to 4q - 1 before its
            # clamp: the 32-bit lane word must hold it.
            assert 4 * q - 1 <= U32_MAX, q
            # The Shoup product widens a lane and a companion
            # floor(w 2**32 / q), both 32-bit words, into uint64.
            companion = ((q - 1) << 32) // q
            assert companion <= U32_MAX
            assert U32_MAX * U32_MAX <= U64_MAX
            # fold: two Shoup products (< 2q each) of the word's halves.
            assert 2 * (2 * q - 1) < 4 * q <= U32_MAX + 1, q
            # mulmod: z >> (w - 1), u and the estimate are 32-bit
            # multiplicands, and the remainder is below 3q, which two
            # conditional subtracts reduce.
            w = q.bit_length()
            u = (1 << (2 * w)) // q
            top = ((1 << (2 * w)) - 1) >> (w - 1)
            assert max(top, u, (top * u) >> (w + 1)) <= U32_MAX, q
            assert self._barrett_remainder_bound(q) < 3 * q <= U32_MAX, q

    def test_2_30_and_up_refused(self):
        """The limit is tight: from 2^30 up a lazy lane outgrows the
        32-bit word, and a plan is refused before it runs."""
        for q in (HOST_MODULUS_LIMIT + 1, ABOVE_2_30):
            assert 4 * q - 1 > U32_MAX
            with pytest.raises(HostModulusError):
                BatchedNegacyclicNtt(64, (q,))

    @pytest.mark.parametrize("q", [3, 257, BELOW_2_30])
    def test_the_kernels_formulas_are_the_analyzed_ones(self, q):
        """``fold`` and ``mulmod`` as written in ``kernels.c``, on numpy
        uint64 words, give ``z % q`` — at the words the bounds above are
        tight at and at random ones."""
        u64 = np.uint64
        w = q.bit_length()
        u = (1 << (2 * w)) // q
        c = (1 << 32) % q
        c_sh, one_sh = (c << 32) // q, (1 << 32) // q
        rng = np.random.default_rng(q)

        def csub(x, t):
            return np.where(x >= u64(t), x - u64(t), x)

        def shoup(x, w_, w_sh):
            return x * u64(w_) - ((x * u64(w_sh)) >> u64(32)) * u64(q)

        z = np.concatenate([
            rng.integers(0, U64_MAX, 4096, dtype=np.uint64, endpoint=True),
            np.array([0, q - 1, q, U64_MAX, U64_MAX - q, 1 << 32,
                      (1 << 32) - 1], dtype=np.uint64)])
        hi, lo = z >> u64(32), z & u64(0xFFFFFFFF)
        folded = csub(csub(shoup(hi, c, c_sh) + shoup(lo, 1, one_sh),
                           2 * q), q)
        assert np.array_equal(folded, z % u64(q))

        a = np.concatenate([rng.integers(0, q, 4096, dtype=np.uint64),
                            np.array([q - 1, 0, 1], dtype=np.uint64)])
        b = np.concatenate([rng.integers(0, q, 4096, dtype=np.uint64),
                            np.array([q - 1, q - 1, 1], dtype=np.uint64)])
        prod = a * b
        est = ((prod >> u64(w - 1)) * u64(u)) >> u64(w + 1)
        reduced = csub(csub(prod - est * u64(q), 2 * q), q)
        assert np.array_equal(reduced, prod % u64(q))
