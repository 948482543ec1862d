"""`RnsPoly.centered_lift` against a pure-Python CRT reference.

The lift reads each coefficient off its Garner digits in uint64 lanes
and assembles it in int64 when it fits, by big-int Horner otherwise.
Every case here compares every entry, as a Python int, with the
textbook ``sum r_i * (Q/q_i) * ((Q/q_i)^-1 mod q_i) mod Q`` lift: prime
widths up to the ``2**30`` host limit, ``Q`` below and above ``2**63``,
both domains, uniform residues, decrypt-sized values and the values at
the edges of the sign test and of the int64 window.  Wider primes (31
and 33 bits here) build no polynomial to lift: ``RnsPoly`` refuses them.
"""

import math

import numpy as np
import pytest

from repro.arith.primes import find_ntt_primes
from repro.fhe.polynomial import RnsPoly
from repro.ntt.negacyclic import HOST_MODULUS_LIMIT, HostModulusError

N = 64
WIDTHS = (14, 28, 30, 31, 33)  # 31 and 33: past the host limit
LIMBS = (1, 2, 3, 8, 16)


def reference_lift(residues: np.ndarray, primes: tuple[int, ...]) -> list[int]:
    """The centered CRT value of every column, in plain Python."""
    q_prod = math.prod(primes)
    out = []
    for column in residues.T:
        total = 0
        for r, q in zip(column, primes):
            q_hat = q_prod // q
            total += int(r) * q_hat * pow(q_hat, -1, q)
        total %= q_prod
        out.append(total - q_prod if total > q_prod // 2 else total)
    return out


def edge_values(q_prod: int) -> list[int]:
    """0, ±1, the sign boundary ±⌊Q/2⌋ and ⌊Q/2⌋ + 1, and both sides of
    ``±2**62`` and ``±2**63`` (the int64 window's edge)."""
    half = q_prod // 2
    values = [0, 1, -1, half, -half, half + 1]
    for power in (62, 63):
        for delta in (-1, 0, 1):
            values += [(1 << power) + delta, -((1 << power) + delta)]
    return values


def residues_of(values: list[int], primes: tuple[int, ...]) -> np.ndarray:
    return np.array([[v % q for v in values] for q in primes], dtype=np.uint64)


def make_columns(primes: tuple[int, ...], seed: int) -> np.ndarray:
    """Edge values, then decrypt-sized values, then uniform residues."""
    rng = np.random.default_rng(seed)
    edges = edge_values(math.prod(primes))
    small = [int(v) for v in rng.integers(-(1 << 40), 1 << 40, 16)]
    head = residues_of(edges + small, primes)
    uniform = np.stack([rng.integers(0, q, N - head.shape[1], dtype=np.uint64)
                        for q in primes])
    return np.concatenate([head, uniform], axis=1)


def refused(primes: tuple[int, ...], residues: np.ndarray) -> bool:
    """Whether ``primes`` are past the host limit, asserting that a
    polynomial over them is refused rather than lifted."""
    if max(primes) < HOST_MODULUS_LIMIT:
        return False
    with pytest.raises(HostModulusError, match=str(max(primes))):
        RnsPoly(residues, primes, is_eval=False)
    return True


def assert_exact(lifted: np.ndarray, expected: list[int]) -> None:
    assert lifted.dtype == object
    assert all(type(v) is int for v in lifted)
    assert list(lifted) == expected


@pytest.mark.parametrize("limbs", LIMBS)
@pytest.mark.parametrize("bits", WIDTHS)
@pytest.mark.parametrize("to_eval", [False, True], ids=["coeff", "eval"])
def test_matches_the_reference(bits, limbs, to_eval):
    """``Q`` spans 14 to 528 bits: the int64 window is the whole of
    ``Q`` below ``2**63`` and the first limbs whose product fits above
    it."""
    primes = tuple(find_ntt_primes(2 * N, bits, limbs))
    residues = make_columns(primes, seed=bits * 100 + limbs)
    if refused(primes, residues):
        return
    poly = RnsPoly(residues.copy(), primes, is_eval=False)
    if to_eval:
        poly = poly.to_eval()
    before = poly.residues.copy()
    assert_exact(poly.centered_lift(), reference_lift(residues, primes))
    np.testing.assert_array_equal(poly.residues, before)  # lifted a copy


@pytest.mark.parametrize("bits,limbs", [(30, 8), (28, 16), (14, 8), (33, 3)])
def test_int64_result_when_every_value_fits(bits, limbs):
    """`centered_coeffs` is int64 exactly when every value fits int64,
    and its float64 conversion rounds as the Python ints' does: the CKKS
    decoder reads it directly."""
    primes = tuple(find_ntt_primes(2 * N, bits, limbs))
    rng = np.random.default_rng(limbs)
    values = [int(v) for v in rng.integers(-(1 << 62), 1 << 62, N)]
    values[:6] = [(1 << 53) + 1, -(1 << 53) - 3, (1 << 63) - 1, -(1 << 63),
                  (1 << 62) + 1, 0]
    if refused(primes, residues_of(values, primes)):
        return
    poly = RnsPoly(residues_of(values, primes), primes, is_eval=False)
    coeffs = poly.centered_coeffs()
    assert coeffs.dtype == np.int64
    assert [int(v) for v in coeffs] == values
    np.testing.assert_array_equal(
        coeffs.astype(np.float64).view(np.uint64),
        poly.centered_lift().astype(np.float64).view(np.uint64))
    wide = residues_of([1 << 63] + values[1:], primes)
    if math.prod(primes) > 1 << 64:
        assert RnsPoly(wide, primes, False).centered_coeffs().dtype == object


def test_decrypted_phase_is_assembled_in_int64():
    """A decrypted CKKS phase lies far inside the window."""
    from repro.fhe.ckks import CkksContext
    from repro.fhe.params import toy_params

    ctx = CkksContext(toy_params(), seed=7)
    phase = ctx.phase(ctx.encrypt(np.linspace(-1, 1, ctx.params.slots)))
    coeffs = phase.centered_coeffs()
    assert coeffs.dtype == np.int64
    residues = phase.to_coeff().residues
    assert list(phase.centered_lift()) == reference_lift(residues, phase.primes)
