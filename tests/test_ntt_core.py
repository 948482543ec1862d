"""Tests for the iterative and reference NTT implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ntt import (
    bit_reverse_permute,
    intt_dit,
    naive_intt,
    naive_ntt,
    ntt_dif,
    vec_intt_dit,
    vec_ntt_dif,
)
from repro.ntt.tables import NttTables, get_tables

Q = 998244353  # = 119 * 2^23 + 1


def rand_poly(n, q=Q, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, q, size=n, dtype=np.uint64)


class TestTables:
    def test_root_orders(self):
        t = NttTables(64, Q)
        assert pow(t.omega, 64, Q) == 1
        assert pow(t.omega, 32, Q) == Q - 1
        assert pow(t.psi, 2, Q) == t.omega
        assert pow(t.psi, 64, Q) == Q - 1

    def test_power_tables(self):
        t = NttTables(16, Q)
        for j in range(16):
            assert int(t.omega_powers[j]) == pow(t.omega, j, Q)
            assert int(t.psi_inv_powers[j]) == pow(t.psi, -j, Q)

    @pytest.mark.parametrize("n, bits", [(1, 17), (2, 17), (512, 28),
                                         (1024, 31), (256, 40)])
    def test_power_tables_match_pow(self, n, bits):
        """The doubling fill against pow, on the uint64 tables and the
        object ones of wide primes; psi_period runs over 2n."""
        from repro.arith.primes import find_ntt_prime

        q = find_ntt_prime(2 * n, bits)
        t = NttTables(n, q)
        for j in range(n):
            assert int(t.omega_powers[j]) == pow(t.omega, j, q)
            assert int(t.omega_inv_powers[j]) == pow(t.omega, -j, q)
            assert int(t.psi_powers[j]) == pow(t.psi, j, q)
            assert int(t.psi_inv_powers[j]) == pow(t.psi, -j, q)
        assert t.psi_period.tolist() == [pow(t.psi, e, q)
                                         for e in range(2 * n)]

    def test_bit_reverse_indices_match_the_scalar_loop(self):
        from repro.ntt.bitrev import bit_reverse, bit_reverse_indices

        for n in (1, 2, 4, 64, 1024):
            bits = n.bit_length() - 1
            got = bit_reverse_indices(n)
            assert got.tolist() == [bit_reverse(i, bits) for i in range(n)]
            assert not got.flags.writeable
            assert bit_reverse_indices(n) is got  # cached per n

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            NttTables(3, Q)
        with pytest.raises(ValueError):
            NttTables(8, 23)  # 16 does not divide 22

    def test_cache(self):
        assert get_tables(32, Q) is get_tables(32, Q)


class TestScalarNtt:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 256])
    def test_dif_matches_naive(self, n):
        t = get_tables(n, Q)
        x = [int(v) for v in rand_poly(n, seed=n)]
        got = ntt_dif(x, t)
        expected = naive_ntt(x, t.omega, Q)
        # DIF output is bit-reversed.
        assert list(bit_reverse_permute(np.array(got, dtype=object))) == expected

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 256])
    def test_dif_dit_roundtrip(self, n):
        t = get_tables(n, Q)
        x = [int(v) for v in rand_poly(n, seed=n + 1)]
        assert intt_dit(ntt_dif(x, t), t) == x

    def test_naive_roundtrip(self):
        t = get_tables(16, Q)
        x = [int(v) for v in rand_poly(16, seed=3)]
        assert naive_intt(naive_ntt(x, t.omega, Q), t.omega, Q) == x

    def test_wide_modulus(self):
        # 60-bit prime: scalar path only.
        from repro.arith import find_ntt_prime

        q = find_ntt_prime(64, 60)
        t = get_tables(32, q)
        x = [int(v) % q for v in rand_poly(32, seed=9)]
        assert intt_dit(ntt_dif(x, t), t) == x

    def test_length_check(self):
        t = get_tables(8, Q)
        with pytest.raises(ValueError):
            ntt_dif([1, 2, 3], t)
        with pytest.raises(ValueError):
            intt_dit([1, 2, 3], t)

    def test_linearity(self):
        n = 32
        t = get_tables(n, Q)
        x = [int(v) for v in rand_poly(n, seed=4)]
        y = [int(v) for v in rand_poly(n, seed=5)]
        fx, fy = ntt_dif(x, t), ntt_dif(y, t)
        fxy = ntt_dif([(a + b) % Q for a, b in zip(x, y)], t)
        assert fxy == [(a + b) % Q for a, b in zip(fx, fy)]

    def test_delta_transforms_to_ones(self):
        n = 64
        t = get_tables(n, Q)
        delta = [1] + [0] * (n - 1)
        assert ntt_dif(delta, t) == [1] * n


class TestVectorizedNtt:
    @pytest.mark.parametrize("n", [4, 16, 64, 1024, 4096])
    def test_matches_scalar(self, n):
        t = get_tables(n, Q)
        x = rand_poly(n, seed=n + 2)
        got = vec_ntt_dif(x, t)
        expected = ntt_dif([int(v) for v in x], t)
        assert [int(v) for v in got] == expected

    @pytest.mark.parametrize("n", [4, 64, 4096])
    def test_roundtrip(self, n):
        t = get_tables(n, Q)
        x = rand_poly(n, seed=n + 3)
        np.testing.assert_array_equal(vec_intt_dit(vec_ntt_dif(x, t), t), x)

    def test_batched_axes(self):
        n = 64
        t = get_tables(n, Q)
        x = rand_poly(5 * n, seed=8).reshape(5, n)
        got = vec_ntt_dif(x, t)
        assert got.shape == (5, n)
        for i in range(5):
            np.testing.assert_array_equal(got[i], vec_ntt_dif(x[i], t))

    def test_shape_check(self):
        t = get_tables(8, Q)
        with pytest.raises(ValueError):
            vec_ntt_dif(np.zeros(7, dtype=np.uint64), t)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32))
    def test_roundtrip_property(self, log_n, seed):
        n = 1 << log_n
        t = get_tables(n, Q)
        x = rand_poly(n, seed=seed)
        np.testing.assert_array_equal(vec_intt_dit(vec_ntt_dif(x, t), t), x)

    def test_convolution_theorem_cyclic(self):
        from repro.ntt.reference import naive_cyclic_poly_mul

        n = 32
        t = get_tables(n, Q)
        a = rand_poly(n, seed=10)
        b = rand_poly(n, seed=11)
        fa, fb = vec_ntt_dif(a, t), vec_ntt_dif(b, t)
        prod = vec_intt_dit(fa * fb % np.uint64(Q), t)
        expected = naive_cyclic_poly_mul([int(v) for v in a], [int(v) for v in b], Q)
        assert [int(v) for v in prod] == expected


class TestNegacyclicStacks:
    """``NegacyclicNtt`` permutes the last axis: a stack of rows is each
    row's transform (an ``(8, 8)`` stack at ``n = 8`` came back permuted
    along the wrong axis; a ``(3, 8)`` one raised)."""

    @pytest.mark.parametrize("rows", [8, 3, 1])
    def test_a_stack_is_its_rows(self, rows):
        from repro.ntt import NegacyclicNtt

        ntt = NegacyclicNtt(8, 97)
        x = np.random.default_rng(rows).integers(0, 97, (rows, 8),
                                                 dtype=np.uint64)
        fwd = ntt.forward(x)
        assert np.array_equal(fwd, np.stack([ntt.forward(r) for r in x]))
        inv = ntt.inverse(x)
        assert np.array_equal(inv, np.stack([ntt.inverse(r) for r in x]))
        assert np.array_equal(ntt.inverse(fwd), x)
