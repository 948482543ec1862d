"""Unit tests for the Barrett and Montgomery reducer datapath models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import BarrettReducer, MontgomeryReducer

PRIMES = [12289, 65537, 786433, 998244353, 4611686018326724609]  # up to 62-bit


class TestBarrett:
    @pytest.mark.parametrize("q", PRIMES)
    def test_mul_exhaustive_corners(self, q):
        red = BarrettReducer(q)
        corners = [0, 1, 2, q // 2, q - 2, q - 1]
        for a in corners:
            for b in corners:
                assert red.mul(a, b) == (a * b) % q

    @pytest.mark.parametrize("q", PRIMES)
    def test_two_correction_bound(self, q):
        """Classic Barrett quotient error is <= 2: never more than two
        correction subtractions."""
        red = BarrettReducer(q)
        rng = np.random.default_rng(42)
        for _ in range(2000):
            a = int(rng.integers(0, q))
            b = int(rng.integers(0, q))
            assert red.mul(a, b) == (a * b) % q
        assert red.max_corrections_seen <= 2

    def test_add_sub(self):
        red = BarrettReducer(12289)
        assert red.add(12288, 1) == 0
        assert red.sub(0, 1) == 12288
        assert red.add(5, 7) == 12
        assert red.sub(5, 7) == 12287

    def test_reduce_rejects_out_of_range(self):
        red = BarrettReducer(17)
        with pytest.raises(ValueError):
            red.reduce(17 * 17)
        with pytest.raises(ValueError):
            red.reduce(-1)

    def test_bad_modulus(self):
        for q in [0, 1, 2, 1 << 63]:
            with pytest.raises(ValueError):
                BarrettReducer(q)

    def test_mul_vec_matches_scalar(self):
        q = 998244353
        red = BarrettReducer(q)
        rng = np.random.default_rng(7)
        a = rng.integers(0, q, size=512, dtype=np.uint64)
        b = rng.integers(0, q, size=512, dtype=np.uint64)
        got = red.mul_vec(a, b)
        expected = np.array([red.mul(int(x), int(y)) for x, y in zip(a, b)],
                            dtype=np.uint64)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("q", [
        (1 << 31) - 1,      # last modulus of the uint64 branch
        2147483659,         # first prime >= 2**31: the exact branch
        (1 << 61) - 1,
    ])
    def test_mul_vec_across_the_width_boundary(self, q):
        """Both branches of ``mul_vec`` are the scalar datapath, lane for
        lane, with the same correction count."""
        vec, scalar = BarrettReducer(q), BarrettReducer(q)
        rng = np.random.default_rng(q % 1000)
        a = rng.integers(0, q, size=256, dtype=np.uint64)
        b = rng.integers(0, q, size=256, dtype=np.uint64)
        a[:6] = b[3:9] = [0, 1, q - 1, q - 1, q // 2, q - 2]
        if q >= 1 << 31:
            a[10:20] += np.uint64(q)  # the exact branch reduces operands
        got = vec.mul_vec(a, b)
        expected = [scalar.mul(int(x), int(y)) for x, y in zip(a, b)]
        assert got.dtype == np.uint64 and got.tolist() == expected
        assert got.tolist() == [int(x) * int(y) % q for x, y in zip(a, b)]
        if q >= 1 << 31:
            assert vec.max_corrections_seen == scalar.max_corrections_seen <= 2
        # One multiplier for a whole register (the executor's VMulScalar).
        assert vec.mul_vec(a, np.uint64(q - 1)).tolist() == [
            int(x) * (q - 1) % q for x in a]

    def test_op_tally(self):
        red = BarrettReducer(12289)
        result, ops = red.mul_count_ops(12288, 12288)
        assert result == (12288 * 12288) % 12289
        assert ops["wide_multiplies"] == 3
        assert 1 <= ops["subtractions"] <= 3

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=998244352),
           st.integers(min_value=0, max_value=998244352))
    def test_mul_property(self, a, b):
        red = BarrettReducer(998244353)
        assert red.mul(a, b) == (a * b) % 998244353


class TestMontgomery:
    @pytest.mark.parametrize("q", PRIMES)
    def test_roundtrip(self, q):
        red = MontgomeryReducer(q)
        for a in [0, 1, q // 3, q - 1]:
            assert red.from_mont(red.to_mont(a)) == a

    @pytest.mark.parametrize("q", PRIMES)
    def test_mul(self, q):
        red = MontgomeryReducer(q)
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = int(rng.integers(0, q)), int(rng.integers(0, q))
            am, bm = red.to_mont(a), red.to_mont(b)
            assert red.from_mont(red.mul(am, bm)) == (a * b) % q

    def test_mul_plain(self):
        red = MontgomeryReducer(12289)
        assert red.mul_plain(12288, 2) == (12288 * 2) % 12289

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            MontgomeryReducer(16)

    def test_redc_range_check(self):
        red = MontgomeryReducer(17)
        with pytest.raises(ValueError):
            red.redc(17 << red.width)

    def test_agreement_with_barrett(self):
        q = 786433
        bar = BarrettReducer(q)
        mon = MontgomeryReducer(q)
        rng = np.random.default_rng(11)
        for _ in range(500):
            a, b = int(rng.integers(0, q)), int(rng.integers(0, q))
            assert bar.mul(a, b) == mon.mul_plain(a, b)
