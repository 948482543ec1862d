"""The numpy batch NTT in row blocks with its short stages transposed.

:class:`~repro.ntt.negacyclic.BatchedNegacyclicNtt` walks an ``(L, n)``
stack in blocks of ``block_rows`` rows and runs the butterfly spans
below ``width`` on each block's transposed view.  None of that may move
a bit: every output must equal per-row :class:`NegacyclicNtt` and,
where the C provider loads, the compiled kernels, for every ``n`` from
2 to ``2**16``, row counts around the block size, both modes, both
inverse schedules and unreduced inputs.
"""

import hashlib

import numpy as np
import pytest

from repro.arith.primes import find_ntt_primes
from repro.fhe.backend import NumpyBackend
from repro.kernels import CompiledBackend
from repro.ntt.negacyclic import (
    BLOCK_WORDS,
    TRANSPOSE_WIDTH,
    BatchedNegacyclicNtt,
    NegacyclicNtt,
)

LOG_NS = range(1, 17)


@pytest.fixture(scope="module")
def compiled():
    backend = CompiledBackend()
    return None if backend.provider_name is None else backend


def _primes(n: int, bits: int, rows: int) -> tuple[int, ...]:
    """``rows`` moduli cycling over three primes (the reference then
    runs one stacked call per prime)."""
    distinct = find_ntt_primes(2 * n, bits, 3)
    return tuple(distinct[i % 3] for i in range(rows))


def _row_counts(n: int) -> list[int]:
    block = max(1, BLOCK_WORDS // n)
    counts = {1, block - 1, block, block + 1}
    if n <= 8192:  # the digit batch of an L = 8 HMult
        counts.add(72)
    return sorted(counts - {0})


def _inputs(n: int, primes: tuple[int, ...], seed: int):
    """A reduced stack, and one mixing words below q, in [q, 2**32) and
    of 2**32 and more."""
    rng = np.random.default_rng(seed)
    shape = (len(primes), n)
    q = np.array(primes, dtype=np.uint64)[:, None]
    reduced = rng.integers(0, 1 << 62, shape, dtype=np.uint64) % q
    wide = reduced.copy()
    pick = rng.integers(0, 3, shape)
    wide[pick == 1] = rng.integers(min(primes), 1 << 32, shape,
                                   dtype=np.uint64)[pick == 1]
    wide[pick == 2] = rng.integers(1 << 32, (1 << 64) - 1, shape,
                                   dtype=np.uint64)[pick == 2]
    return reduced, wide


def _reference(x: np.ndarray, primes: tuple[int, ...],
               inverse: bool) -> np.ndarray:
    """Per-row :class:`NegacyclicNtt`, the rows of one prime stacked
    through its bit-reversed API."""
    n = x.shape[1]
    out = np.empty_like(x)
    for q in set(primes):
        rows = np.array(primes) == q
        ntt = NegacyclicNtt(n, q)
        bitrev = ntt.tables.bitrev
        if inverse:
            out[rows] = ntt.inverse_bitrev(x[rows][:, bitrev])
        else:
            out[np.ix_(rows, bitrev)] = ntt.forward_bitrev(x[rows])
    return out


def _check_shape(n: int, primes: tuple[int, ...], compiled,
                 seed: int) -> None:
    plan = BatchedNegacyclicNtt(n, primes)
    for x in _inputs(n, primes, seed):
        for inverse in (False, True):
            want = _reference(x, primes, inverse)
            run = plan.inverse if inverse else plan.forward
            for clamped in (False, True):
                got = run(x, clamped=clamped)
                assert got.dtype == np.uint64
                np.testing.assert_array_equal(got, want)
            if compiled is not None:
                kernel = (compiled.inverse_ntt_batch if inverse
                          else compiled.forward_ntt_batch)
                assert kernel(x, primes).tobytes() == want.tobytes()


class TestBlockedEngine:
    @pytest.mark.parametrize("log_n", LOG_NS)
    def test_bit_identical_at_every_row_count(self, log_n, compiled):
        n = 1 << log_n
        for rows in _row_counts(n):
            _check_shape(n, _primes(n, 29, rows), compiled, seed=rows)

    def test_both_inverse_schedules(self, compiled):
        """30-bit primes at ``n = 2**16`` take the lazy Shoup inverse,
        29-bit ones the clamp-free one; both in blocks of one row."""
        n = 1 << 16
        for bits, mode in ((30, 1), (29, 2)):
            primes = _primes(n, bits, 2)
            plan = BatchedNegacyclicNtt(n, primes)
            assert plan.inv_mode == mode and plan.block_rows == 1
            _check_shape(n, primes, compiled, seed=bits)

    def test_layout_constants(self):
        plan = BatchedNegacyclicNtt(8192, _primes(8192, 29, 9))
        assert (plan.block_rows, plan.width) == (4, TRANSPOSE_WIDTH)
        assert [blk.rows for blk in plan._blocks] == [
            slice(0, 4), slice(4, 8), slice(8, 12)]
        assert BatchedNegacyclicNtt(1024, _primes(1024, 29, 64)) \
            .block_rows == 32
        small = BatchedNegacyclicNtt(8, _primes(8, 29, 1))
        assert small.width == 8
        np.testing.assert_array_equal(small.tbitrev, small.bitrev)
        # The transposed gather is an involution, as bit reversal is.
        np.testing.assert_array_equal(plan.tbitrev[plan.tbitrev],
                                      np.arange(8192))

    def test_digest_is_pinned(self):
        """Forward and inverse, fast and clamped, at every ``n``: the
        bytes the engine produced before it ran in blocks."""
        digest = hashlib.sha256()
        for log_n in LOG_NS:
            n = 1 << log_n
            primes = _primes(n, 29, 3)
            plan = BatchedNegacyclicNtt(n, primes)
            x = _inputs(n, primes, seed=log_n)[1]
            for run in (plan.forward, plan.inverse):
                for clamped in (False, True):
                    digest.update(run(x, clamped=clamped).tobytes())
        assert digest.hexdigest() == (
            "a91cb83cbb7f9c775915d67f35b2b3c72147adc9a36439fb3afef02905d38f15")


class TestStackShape:
    """A stack that is not ``(len(primes), n)`` is refused, in both
    directions and both modes, before any row is transformed."""

    N = 64
    PRIMES = tuple(find_ntt_primes(2 * 64, 28, 3))

    @pytest.mark.parametrize("mode", ["fast", "clamped"])
    @pytest.mark.parametrize("rows", [1, 4])
    def test_backend_refuses_a_row_count_off_the_primes(self, mode, rows):
        backend = NumpyBackend(mode)
        x = np.zeros((rows, self.N), dtype=np.uint64)
        for run in (backend.forward_ntt_batch, backend.inverse_ntt_batch):
            with pytest.raises(ValueError, match="stack"):
                run(x, self.PRIMES)

    @pytest.mark.parametrize("clamped", [False, True])
    @pytest.mark.parametrize("shape", [(1, 64), (4, 64), (3, 32), (64,),
                                       (1, 3, 64)])
    def test_plan_refuses(self, clamped, shape):
        plan = BatchedNegacyclicNtt(self.N, self.PRIMES)
        x = np.zeros(shape, dtype=np.uint64)
        for run in (plan.forward, plan.inverse):
            with pytest.raises(ValueError, match="stack"):
                run(x, clamped=clamped)
