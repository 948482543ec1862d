"""Kernel-level NTT throughput: the software substrate's own numbers.

Not a paper table — this documents the repository's kernel performance
(vectorized DIF/DIT, negacyclic wrap, batched limbs) so changes
that slow the golden models get caught."""

import numpy as np
import pytest

from repro.ntt import NegacyclicNtt, vec_ntt_dif
from repro.ntt.tables import get_tables

Q = 998244353


@pytest.mark.parametrize("n", [1024, 4096])
def test_vectorized_forward(benchmark, n):
    t = get_tables(n, Q)
    x = np.random.default_rng(0).integers(0, Q, n, dtype=np.uint64)
    out = benchmark(vec_ntt_dif, x, t)
    assert len(out) == n


def test_negacyclic_roundtrip(benchmark):
    n = 4096
    ntt = NegacyclicNtt(n, Q)
    x = np.random.default_rng(1).integers(0, Q, n, dtype=np.uint64)

    def roundtrip():
        return ntt.inverse(ntt.forward(x))

    out = benchmark(roundtrip)
    np.testing.assert_array_equal(out, x)


def test_batched_limbs(benchmark):
    """The FHE shape: six RNS limbs transformed as one batch."""
    n, limbs = 4096, 6
    t = get_tables(n, Q)
    x = np.random.default_rng(3).integers(0, Q, (limbs, n), dtype=np.uint64)
    out = benchmark(vec_ntt_dif, x, t)
    assert out.shape == (limbs, n)
