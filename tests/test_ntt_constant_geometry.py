"""Tests for the Pease constant-geometry permutations (the CG network's
wiring)."""

import numpy as np
import pytest

from repro.ntt import dif_gather_permutation, dit_scatter_permutation


class TestPermutations:
    @pytest.mark.parametrize("n", [2, 4, 8, 64])
    def test_gather_scatter_are_inverse(self, n):
        gather = dif_gather_permutation(n)
        scatter = dit_scatter_permutation(n)
        x = np.arange(n)
        np.testing.assert_array_equal(x[gather][scatter], x)
        np.testing.assert_array_equal(x[scatter][gather], x)

    def test_gather_pairs_strided_elements(self):
        n = 8
        g = dif_gather_permutation(n)
        # out[2j], out[2j+1] must come from j and j + n/2.
        for j in range(n // 2):
            assert g[2 * j] == j
            assert g[2 * j + 1] == j + n // 2

    def test_gather_is_perfect_shuffle_inverse(self):
        # The CG-DIF gather is the inverse perfect shuffle: position p's
        # source is ror(p) read as a bit rotation.
        n = 16
        g = dif_gather_permutation(n)
        bits = 4
        for p in range(n):
            expected_src = ((p >> 1) | ((p & 1) << (bits - 1)))
            assert g[p] == expected_src

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            dif_gather_permutation(6)
        with pytest.raises(ValueError):
            dit_scatter_permutation(1)

