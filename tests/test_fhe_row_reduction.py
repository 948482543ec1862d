"""The one RNS row reduction (``reduce_rows``) and the encoder's int64
route: both equal the column ``%`` / object-dtype forms they replace,
word for word."""

import numpy as np
import pytest

from repro.fhe.encoding import CkksEncoder
from repro.fhe.params import toy_params
from repro.fhe.polynomial import RnsPoly, reduce_rows

TOP = (1 << 30) - 35  # the largest prime below the host limit
PRIMES = (TOP, 3, 5, 17, 257, 65537, 998244353)


def _edge_words(dtype, n=4096, seed=0):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(seed)
    words = rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)
    edges = [info.min, info.min + 1, -1, 0, 1, TOP - 1, TOP, TOP + 1,
             2 * TOP, TOP * TOP, (1 << 60) - 1, 1 << 62, info.max - 1,
             info.max]
    edges = [e for e in edges if info.min <= e <= info.max]
    words[:len(edges)] = edges
    return words


@pytest.mark.parametrize("dtype", [np.uint64, np.int64])
def test_reduce_rows_is_the_column_mod(dtype):
    rows = np.stack([_edge_words(dtype, seed=i) for i in range(len(PRIMES))])
    want = rows % np.array(PRIMES, dtype=dtype)[:, None]
    got = reduce_rows(rows, PRIMES)
    assert got is rows and got.dtype == dtype
    assert np.array_equal(got, want)
    assert got.min() >= 0


def test_reduce_rows_of_a_row_prefix_and_no_rows():
    x = _edge_words(np.uint64).reshape(4, -1).copy()
    want = x.copy()
    want[:2] %= np.array([TOP, 17], dtype=np.uint64)[:, None]
    reduce_rows(x[:2], (TOP, 17))
    assert np.array_equal(x, want)
    empty = np.empty((0, 8), dtype=np.uint64)
    assert reduce_rows(empty, ()) is empty


def test_ring_ops_equal_the_column_mod_on_unreduced_words():
    primes = (TOP, 998244353, 65537)
    rng = np.random.default_rng(4)
    shape = (len(primes), 256)
    q = np.array(primes, dtype=np.uint64)[:, None]
    a = rng.integers(0, 1 << 63, shape, dtype=np.uint64)
    b = rng.integers(0, 1 << 64, shape, dtype=np.uint64, endpoint=False)
    a[0, :3] = [0, (1 << 63) - 1, TOP]
    pa, pb = RnsPoly(a, primes, True), RnsPoly(b, primes, True)
    s = 123456789123
    s_col = np.array([s % p for p in primes], dtype=np.uint64)[:, None]
    cases = [
        (pa + pb, (a + b) % q),
        (pa - pb, (a + (q - b)) % q),
        (-pa, (q - a) % q),
        (pa * pb, a * b % q),
        (pa.mul_scalar(s), a * s_col % q),
    ]
    for got, want in cases:
        assert got.residues.dtype == np.uint64
        assert np.array_equal(got.residues, want)


def test_int_coefficients_reduce_like_python_ints():
    primes = (TOP, 257, 17)
    coeffs = _edge_words(np.int64, n=512)
    poly = RnsPoly.from_int_coeffs(coeffs, primes, to_eval=False)
    want = [[int(c) % p for c in coeffs] for p in primes]
    assert poly.residues.tolist() == want


# -- the encoder's two routes ------------------------------------------------


def _old_route(encoder, values, level, scale):
    """The encode before the int64 route: every rounded coefficient a
    Python object, reduced exactly, then sent forward."""
    rounded = np.rint(encoder.embed(values) * scale).astype(object)
    primes = encoder.params.primes[:level + 1]
    rows = np.array([[int(c) % p for c in rounded] for p in primes],
                    dtype=np.uint64)
    return RnsPoly(rows, primes, is_eval=False).to_eval()


@pytest.mark.parametrize("scale_bits", [26, 40, 61])
def test_the_int64_route_is_the_object_route(scale_bits):
    encoder = CkksEncoder(toy_params())
    values = np.random.default_rng(scale_bits).uniform(-1, 1, encoder.slots)
    scale = float(1 << scale_bits)
    got, _ = encoder.encode(values, level=2, scale=scale)
    want = _old_route(encoder, values, 2, scale)
    assert got.residues.tobytes() == want.residues.tobytes()


def test_coefficients_beyond_int64_take_the_object_route(monkeypatch):
    encoder = CkksEncoder(toy_params())
    n = encoder.n
    values = np.random.default_rng(1).uniform(-1, 1, encoder.slots)
    # 2^70-scale coefficients: the object route, whole.
    got, _ = encoder.encode(values, level=2, scale=float(1 << 70))
    want = _old_route(encoder, values, 2, float(1 << 70))
    assert got.residues.tobytes() == want.residues.tobytes()
    # At the int64 edges: -2^63 and 2^63 - 1024 fit, 2^63 does not.
    for top in (2.0 ** 63 - 1024, 2.0 ** 63, 2.0 ** 64):
        coeffs = np.linspace(-2.0 ** 63, top, n)
        coeffs[1] = -2.0 ** 63
        monkeypatch.setattr(encoder, "embed", lambda _, c=coeffs: c)
        got, _ = encoder.encode(values, level=2, scale=1.0)
        want = _old_route(encoder, values, 2, 1.0)
        assert got.residues.tobytes() == want.residues.tobytes()
