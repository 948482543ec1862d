"""Edge-of-validity tests for the production gates in analysis.bounds.

The gates answer "may the fast path run?" right at the boundaries the
paper's parameter space touches: the widest modulus the compiled
kernels take (just below 2^30, the Shoup precision limit), the widest
vectorized numpy modulus (just below 2^31), and the degenerate smallest
shapes (log_n <= 1, a single keyswitch digit).  Each gate answer is
cross-checked against the symbolic stage-plan analysis so the cheap
boolean and the full derivation can never drift apart.
"""

import numpy as np
import pytest

from repro.analysis.bounds import (
    barrett_w_ok,
    centered_lift_lazy_ok,
    checksum_dot_lazy_ok,
    fold_ok,
    keyswitch_lazy_accumulate_ok,
    mul_fits_uint64,
    ntt_shoup_ok,
    unclamped_dit_ok,
)
from repro.analysis.intervals import U64_MAX
from repro.analysis.stage_plans import (
    analyze_barrett_w,
    analyze_batched_forward,
    analyze_batched_inverse,
    analyze_fold,
    analyze_keyswitch_accumulate,
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


class TestCompiledNttModulusEdge:
    """The compiled kernels' Shoup stages are proven by ``ntt_shoup_ok``
    exactly below 2^30, the host limit: a batch plan is built there and
    refused from 2^30 up, so no plan needs a gate of its own."""

    def test_widest_vectorized_modulus_accepted(self):
        # Largest NTT-friendly prime below 2^30 for n=256 negacyclic.
        q = find_ntt_prime(512, 30)
        assert q == 1073738753
        assert ntt_shoup_ok(8, q)
        assert BatchedNegacyclicNtt(256, (q,)).primes == (q,)

    def test_32_bit_modulus_refused(self):
        q = find_ntt_prime(512, 32)
        assert q == 4294962689
        assert not ntt_shoup_ok(8, q)
        assert not analyze_batched_forward(8, q).ok

    def test_gate_agrees_with_stage_analysis_on_both_sides(self):
        """Every log_n from 0 to 17 (n <= 2 has no twiddled stage: the
        pointwise Shoup scaling refuses there): the gate holds exactly
        below 2^30, and wherever it holds the clamped batched plans
        verify too, so the gate narrowed nothing below 2^30."""
        for log_n in range(18):
            for q in (BELOW_2_30, ABOVE_2_30):
                ok = ntt_shoup_ok(log_n, q)
                assert ok == (q < 1 << 30), (log_n, q)
                if ok:
                    assert analyze_batched_forward(log_n, q).ok
                    assert analyze_batched_inverse(log_n, q,
                                                   unclamped=False).ok

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
        """What lets a plan carry no gate of its own: the Shoup stages
        verify for the largest NTT prime below 2^30 at every n from 2
        to 2^17 (the largest for that n, and the one every such n
        shares)."""
        for log_n in range(1, 18):
            q = find_ntt_prime(2 << log_n, 30)
            assert q < HOST_MODULUS_LIMIT
            assert ntt_shoup_ok(log_n, q), (log_n, q)
            assert ntt_shoup_ok(log_n, BELOW_2_30), log_n


class TestShoupPrecisionEdge:
    def test_just_below_2_30_accepted(self):
        assert ntt_shoup_ok(8, find_ntt_prime(512, 30))

    def test_31_bit_modulus_refused(self):
        # Interval-precise: the wide modulus breaks the 2^32 Shoup radix
        # even though it fits numpy's lazy batched plans.
        q = find_ntt_prime(512, 31)
        assert not ntt_shoup_ok(8, q)
        assert analyze_batched_forward(8, q).ok


class TestDegenerateShapes:
    """log_n <= 1 and single-digit keyswitch must not over-reject."""

    def test_two_point_ntt_accepted(self):
        assert ntt_shoup_ok(1, 257)
        assert unclamped_dit_ok(1, 257)

    def test_log_n_zero_does_not_raise(self):
        # A 1-point transform is vacuously safe for any sane modulus.
        assert ntt_shoup_ok(0, 257)
        assert analyze_batched_inverse(0, 257, unclamped=False).ok

    def test_degenerate_analysis_agreement(self):
        assert analyze_batched_forward(1, 257).ok

    def test_single_digit_keyswitch_accepted(self):
        q = find_ntt_prime(512, 31)
        assert keyswitch_lazy_accumulate_ok(1, q)
        report = analyze_keyswitch_accumulate(1, q, lazy=True)
        assert report.ok, list(report.findings)

    def test_zero_digit_keyswitch_does_not_raise(self):
        assert keyswitch_lazy_accumulate_ok(0, find_ntt_prime(512, 31))


class TestMulFitsUint64:
    def test_exact_boundary(self):
        assert mul_fits_uint64(2**32 - 1, 2**32 + 1)        # == 2^64 - 1
        assert not mul_fits_uint64(2**32, 2**32)            # == 2^64


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
    """``kernels.c`` reduces words by ``fold`` (any uint64) and by the
    w-bit Barrett ``mulmod`` (a product of two reduced words), every
    product 32 x 32 -> 64: both proven for every host modulus and
    refused from 2^30 up."""

    @staticmethod
    def _moduli_of_every_width():
        """Both ends of every width from 2 to 30 bits, odd moduli as the
        NTT primes are, and the NTT primes the kernels run."""
        for w in range(2, 31):
            yield (1 << (w - 1)) + 1
            yield (1 << w) - 1
        yield from (BELOW_2_30, find_ntt_prime(1 << 14, 30),
                    find_ntt_prime(1 << 17, 30))

    def test_every_width_below_2_30_is_proven(self):
        for q in self._moduli_of_every_width():
            assert fold_ok(q) and barrett_w_ok(q), q
            report = analyze_barrett_w(q)
            assert report.stage_bounds[-1] < 3 * q < 1 << 32, q
            assert analyze_fold(q).stage_bounds[-1] < 4 * q, q

    def test_2_30_and_up_refused(self):
        for q in (HOST_MODULUS_LIMIT + 1, ABOVE_2_30):
            assert not fold_ok(q) and not barrett_w_ok(q)
            assert "S002" in [f.rule for f in analyze_fold(q).findings]

    @pytest.mark.parametrize("q", [3, 257, BELOW_2_30])
    def test_the_kernels_formulas_are_the_analyzed_ones(self, q):
        """``fold`` and ``mulmod`` as written in ``kernels.c``, on numpy
        uint64 words, give ``z % q`` — at the words the bounds are
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
