"""Symbolic stage-plan analysis: derived bounds, gates, and the seeded
mutations the acceptance criteria call for (a dropped conditional
subtract must surface as a range/overflow violation)."""

import pytest

from repro.analysis.bounds import (
    keyswitch_lazy_accumulate_ok,
    unclamped_dit_ok,
    unclamped_dit_lane_bound,
)
from repro.analysis.stage_plans import (
    analyze_batched_forward,
    analyze_batched_inverse,
    analyze_dif_lazy,
    analyze_dit_lazy,
    analyze_dit_unclamped,
    analyze_fold,
    analyze_barrett_w,
    analyze_keyswitch_accumulate,
)
from repro.arith.primes import find_ntt_prime

Q28 = find_ntt_prime(512, 28)   # toy regime
Q30 = find_ntt_prime(512, 30)   # Shoup edge
Q31 = find_ntt_prime(512, 31)   # past the host limit (analysis only)


class TestCleanPlans:
    @pytest.mark.parametrize("q,shoup", [(Q28, True), (Q30, True),
                                         (Q31, False)])
    def test_dif_lazy_clean(self, q, shoup):
        report = analyze_dif_lazy(12, q, shoup=shoup)
        assert report.ok
        assert report.stage_bounds[-1] <= 2 * q - 1

    @pytest.mark.parametrize("q,shoup", [(Q28, True), (Q31, False)])
    def test_dit_lazy_clean(self, q, shoup):
        report = analyze_dit_lazy(12, q, shoup=shoup)
        assert report.ok
        assert report.stage_bounds[-1] <= 2 * q - 1

    def test_dit_unclamped_growth_is_exact(self):
        log_n = 8
        report = analyze_dit_unclamped(log_n, Q28)
        assert report.ok
        # +q per stage from a reduced entry: (s+2)*q - 1 after stage s.
        for s, bound in enumerate(report.stage_bounds[1:]):
            assert bound == (s + 2) * Q28 - 1
        assert report.stage_bounds[-1] == (log_n + 1) * Q28 - 1
        assert unclamped_dit_lane_bound(log_n, Q28) == (log_n + 1) * Q28 - 1

    def test_batched_forward_output_reduced(self):
        report = analyze_batched_forward(8, Q28)
        assert report.ok
        assert report.output_bound <= Q28 - 1


class TestSeededMutations:
    """Acceptance criterion: removing one conditional subtract from a
    lazy plan must be reported as an overflow or range violation."""

    def test_dropped_total_clamp_escapes_invariant(self):
        report = analyze_dif_lazy(12, Q28, shoup=True,
                                  skip_total_clamp=True)
        assert not report.ok
        assert any(f.rule in ("S001", "S003", "S004")
                   for f in report.findings)

    def test_dropped_diff_clamp_escapes_invariant(self):
        report = analyze_dit_lazy(12, Q28, shoup=True,
                                  skip_diff_clamp=True)
        assert not report.ok

    def test_dropped_clamp_at_wide_modulus_overflows_uint64(self):
        # Without Shoup the unclamped growth eventually breaks the raw
        # product bound, not just the declared lane invariant.
        report = analyze_dif_lazy(16, Q31, shoup=False,
                                  skip_total_clamp=True)
        assert not report.ok

    def test_shoup_rejects_wide_modulus(self):
        report = analyze_dif_lazy(12, Q31, shoup=True)
        assert not report.ok
        assert any(f.rule == "S002" for f in report.findings)


class TestThirtyTwoBitLanes:
    """``kernels.c`` runs the butterflies on 32-bit lane words: every
    sum, difference and Shoup low product must fit one."""

    @pytest.mark.parametrize("analyze, entry", [
        (analyze_dif_lazy, lambda q: 2 * q - 1),
        (analyze_dit_lazy, lambda q: q - 1)])
    def test_clean_at_the_host_limit(self, analyze, entry):
        for log_n in (1, 3, 13, 16):
            report = analyze(log_n, Q30, shoup=True, entry_hi=entry(Q30),
                             word_bits=32)
            assert report.ok and report.word_bits == 32, log_n
            assert report.max_intermediate < 1 << 64
            assert 4 * Q30 - 1 <= (1 << 32) - 1

    def test_dropped_dif_sum_subtract_is_a_32_bit_wrap(self):
        """Without the DIF sum's conditional subtract the next stage's
        sum reaches 8q: a uint64 lane holds it, a 32-bit lane wraps."""
        report = analyze_dif_lazy(12, Q30, shoup=True,
                                  skip_total_clamp=True, word_bits=32)
        wraps = [f for f in report.findings
                 if f.rule == "S001" and "32-bit lane" in f.message]
        assert wraps and "total = u + v" in wraps[0].message
        assert wraps[0].location == "stage 1"
        wide = analyze_dif_lazy(12, Q30, shoup=True, skip_total_clamp=True)
        assert not any("32-bit lane" in f.message for f in wide.findings)

    def test_shoup_low_product_must_fit_the_lane(self):
        """Past 2**31 the Shoup result (below 2q) no longer fits a
        32-bit lane: the low products' difference is not exact."""
        report = analyze_dif_lazy(12, Q31 * 2 + 1, shoup=True,
                                  word_bits=32)
        assert any(f.rule == "S001" and "mod 2**32" in f.message
                   for f in report.findings)


class TestGates:
    def test_unclamped_gate_matches_exact_product(self):
        for log_n in (6, 12, 16):
            for q in (Q28, Q30, Q31):
                exact = ((log_n + 1) * q - 1) * (q - 1) <= (1 << 64) - 1
                assert unclamped_dit_ok(log_n, q) == exact, (log_n, q)

    def test_refused_unclamped_plan_explains_itself(self):
        assert not unclamped_dit_ok(6, Q31)
        report = analyze_batched_inverse(6, Q31, unclamped=True)
        assert not report.ok and report.findings.errors

    def test_keyswitch_bound_is_exact(self):
        d, q = 4, Q28
        report = analyze_keyswitch_accumulate(d, q, lazy=True)
        assert report.ok
        assert report.output_bound <= q - 1
        assert report.max_intermediate == d * (q - 1) ** 2
        assert keyswitch_lazy_accumulate_ok(d, q)


class TestKernelReductionMutations:
    """Seeded mutations of ``kernels.c``'s word reductions: each must
    surface as exactly the finding that names it."""

    @pytest.mark.parametrize("analyze", [analyze_fold, analyze_barrett_w])
    def test_clean(self, analyze):
        assert list(analyze(Q30).findings) == []

    @pytest.mark.parametrize("analyze", [analyze_fold, analyze_barrett_w])
    def test_dropped_subtract_escapes_the_reduced_range(self, analyze):
        report = analyze(Q30, skip_subtract=True)
        assert [f.rule for f in report.findings] == ["S005"]
        assert Q30 <= report.output_bound < 2 * Q30

    def test_fold_split_at_the_wrong_bit_breaks_the_shoup_radix(self):
        rules = [f.rule for f in analyze_fold(Q30, shift=31).findings]
        assert rules[0] == "S003"

    def test_barrett_shifted_too_far_undershoots(self):
        """A post shift of w + 2 halves the estimate: the remainder
        reaches far past 3q, past what two subtracts can reduce — and
        past the 32-bit lane word it is taken in."""
        w = Q30.bit_length()
        report = analyze_barrett_w(Q30, post_shift=w + 2)
        rules = [f.rule for f in report.findings]
        assert rules[0] == "S001" and rules[-1] == "S005"
        assert "32-bit lane" in list(report.findings)[0].message
        assert report.stage_bounds[-1] > 3 * Q30

    def test_barrett_shifted_too_little_overshoots(self):
        """A pre shift of w - 2 doubles the estimate past floor(z / q):
        z - est * q wraps."""
        w = Q30.bit_length()
        rules = [f.rule for f in
                 analyze_barrett_w(Q30, pre_shift=w - 2).findings]
        assert "S001" in rules
