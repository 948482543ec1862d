"""Tests for the negacyclic NTT wrapper and multi-dimensional decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import find_ntt_prime
from repro.ntt import (
    NegacyclicNtt,
    choose_dimensions,
    naive_negacyclic_poly_mul,
    naive_ntt,
    negacyclic_poly_mul,
    ntt_four_step,
    ntt_multidim,
)
from repro.ntt.decomposition import ntt_multidim_fast
from repro.ntt.negacyclic import HostModulusError
from repro.ntt.tables import get_tables

Q = 998244353


def rand_poly(n, q=Q, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, q, size=n, dtype=np.uint64)


class TestNegacyclic:
    @pytest.mark.parametrize("n", [4, 16, 256, 2048])
    def test_roundtrip_natural(self, n):
        ntt = NegacyclicNtt(n, Q)
        x = rand_poly(n, seed=n)
        np.testing.assert_array_equal(ntt.inverse(ntt.forward(x)), x)

    @pytest.mark.parametrize("n", [4, 64, 1024])
    def test_roundtrip_bitrev(self, n):
        ntt = NegacyclicNtt(n, Q)
        x = rand_poly(n, seed=n + 1)
        np.testing.assert_array_equal(ntt.inverse_bitrev(ntt.forward_bitrev(x)), x)

    def test_orders_consistent(self):
        n = 64
        ntt = NegacyclicNtt(n, Q)
        x = rand_poly(n, seed=5)
        nat = ntt.forward(x)
        rev = ntt.forward_bitrev(x)
        np.testing.assert_array_equal(nat[ntt.tables.bitrev], rev)

    def test_forward_evaluates_at_odd_psi_powers(self):
        """Natural-order slot i must hold p(psi^(2i+1)): the property the
        automorphism layer depends on."""
        n = 16
        ntt = NegacyclicNtt(n, Q)
        x = rand_poly(n, seed=6)
        values = ntt.forward(x)
        psi = ntt.tables.psi
        for i in range(n):
            point = pow(psi, 2 * i + 1, Q)
            expected = sum(int(x[j]) * pow(point, j, Q) for j in range(n)) % Q
            assert int(values[i]) == expected

    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_poly_mul_matches_schoolbook(self, n):
        a = rand_poly(n, seed=7)
        b = rand_poly(n, seed=8)
        got = negacyclic_poly_mul(a, b, Q)
        expected = naive_negacyclic_poly_mul(
            [int(v) for v in a], [int(v) for v in b], Q
        )
        assert [int(v) for v in got] == expected

    def test_wide_modulus_is_refused(self):
        """A 60-bit modulus is past the host limit: the wrapper and the
        NTT product refuse it, and only the naive reference multiplies
        over it."""
        q = find_ntt_prime(64, 60)
        n = 32
        rng = np.random.default_rng(4)
        a, b = (np.array([int(v) % q for v in rng.integers(0, 1 << 59, n)],
                         dtype=object) for _ in range(2))
        with pytest.raises(HostModulusError, match=str(q)):
            NegacyclicNtt(n, q)
        with pytest.raises(HostModulusError, match=str(q)):
            negacyclic_poly_mul(a, b, q)
        product = naive_negacyclic_poly_mul(list(a), list(b), q)
        assert product[0] == (int(a[0]) * int(b[0]) - sum(
            int(a[i]) * int(b[n - i]) for i in range(1, n))) % q

    def test_mul_shape_mismatch(self):
        with pytest.raises(ValueError):
            negacyclic_poly_mul(np.zeros(4, dtype=np.uint64),
                                np.zeros(8, dtype=np.uint64), Q)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32))
    def test_mul_commutes_property(self, log_n, seed):
        n = 1 << log_n
        a = rand_poly(n, seed=seed)
        b = rand_poly(n, seed=seed + 1)
        ab = negacyclic_poly_mul(a, b, Q)
        ba = negacyclic_poly_mul(b, a, Q)
        np.testing.assert_array_equal(ab, ba)


class TestChooseDimensions:
    def test_paper_dimension_counts(self):
        """Table III context: m=64 gives 2 dims at N=2^10..2^12, 3 dims at
        2^14..2^18, 4 dims at 2^20."""
        m = 64
        assert len(choose_dimensions(2**10, m)) == 2
        assert len(choose_dimensions(2**12, m)) == 2
        assert len(choose_dimensions(2**14, m)) == 3
        assert len(choose_dimensions(2**18, m)) == 3
        assert len(choose_dimensions(2**20, m)) == 4

    def test_products_and_bounds(self):
        for log_n in range(1, 21):
            dims = choose_dimensions(1 << log_n, 64)
            assert int(np.prod(dims)) == 1 << log_n
            assert all(d <= 64 for d in dims)
            assert all(d >= 1 for d in dims)
            # All but the last are full-width.
            assert all(d == 64 for d in dims[:-1])

    def test_small_n(self):
        assert choose_dimensions(16, 64) == [16]
        assert choose_dimensions(64, 64) == [64]

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_dimensions(100, 64)
        with pytest.raises(ValueError):
            choose_dimensions(64, 3)


class TestMultidim:
    @pytest.mark.parametrize("n,n1", [(16, 4), (16, 2), (64, 8), (256, 16)])
    def test_four_step_matches_naive(self, n, n1):
        t = get_tables(n, Q)
        x = rand_poly(n, seed=n + n1).astype(object)
        got = ntt_four_step(x, n1, t.omega, Q)
        expected = naive_ntt([int(v) for v in x], t.omega, Q)
        assert [int(v) for v in got] == expected

    @pytest.mark.parametrize("dims", [[4, 4], [8, 2], [4, 4, 4], [2, 4, 8], [8, 8, 4]])
    def test_multidim_matches_naive(self, dims):
        n = int(np.prod(dims))
        t = get_tables(n, Q)
        x = rand_poly(n, seed=n).astype(object)
        got = ntt_multidim(x, dims, t.omega, Q)
        expected = naive_ntt([int(v) for v in x], t.omega, Q)
        assert [int(v) for v in got] == expected

    def test_multidim_fast_hardware_shape(self):
        n, m = 256, 16
        x = rand_poly(n, seed=1).astype(object)
        t = get_tables(n, Q)
        got = ntt_multidim_fast(x, m, n, Q)
        expected = naive_ntt([int(v) for v in x], t.omega, Q)
        assert [int(v) for v in got] == expected

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            ntt_multidim(np.zeros(16, dtype=object), [4, 8], 1, Q)
        with pytest.raises(ValueError):
            ntt_four_step(np.zeros(16, dtype=object), 3, 1, Q)
