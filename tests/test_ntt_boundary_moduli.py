"""Boundary-modulus regression tests for the host word regime.

Every host modulus is below ``2**30`` (``HOST_MODULUS_LIMIT``):

* below it — Shoup companions in the forward pass, the unclamped DIT
  inverse while ``(log2(n)+1) * q**2`` fits uint64 and the clamped one
  beyond (``n = 2**16`` at 30 bits, and the clamped ladder rung);
* at or above it — ``HostModulusError``, raised by ``RnsPoly``, by every
  host NTT entry point and by ``BgvParams`` before any work starts.

The behavioral VPU keeps the paper's 64-bit words: it still runs a
wide prime, bit-identical to the naive reference transform.  Every
running case asserts **bit-equality** between the path the gates select
and an independent reference, so a wrong gate (too permissive *or*
silently changing results) fails loudly.
"""

import numpy as np
import pytest

from repro.analysis.bounds import (
    keyswitch_lazy_accumulate_ok,
    mul_fits_uint64,
    unclamped_dit_ok,
    unclamped_dit_lane_bound,
)
from repro.arith.primes import find_ntt_prime, is_prime
from repro.fhe.backend import (
    IntegrityBackend,
    NumpyBackend,
    VpuBackend,
    get_backend,
    use_backend,
)
from repro.fhe.bgv import BgvParams
from repro.fhe.keyswitch import KeySwitchKey, accumulate_keyswitch
from repro.fhe.polynomial import RnsPoly
from repro.kernels import CompiledBackend
from repro.ntt.negacyclic import (
    HOST_MODULUS_LIMIT,
    BatchedNegacyclicNtt,
    HostModulusError,
    NegacyclicNtt,
)
from repro.ntt.reference import naive_ntt
from repro.ntt.tables import get_tables

N = 64
LOG_N = 6


def _prime_just_above(order: int, floor: int) -> int:
    """Smallest NTT-friendly prime strictly above ``floor``."""
    q = floor + 1 + (-floor % order)  # first q > floor with q ≡ 1 (mod order)
    while not (q % order == 1 and is_prime(q)):
        q += order
    return q


@pytest.fixture(scope="module")
def boundary_primes():
    return {
        "below_2^30": find_ntt_prime(2 * N, 30),
        "above_2^30": _prime_just_above(2 * N, 1 << 30),
        "below_2^31": find_ntt_prime(2 * N, 31),
    }


def _rand_rows(primes, seed=0, n=N):
    rng = np.random.default_rng(seed)
    return np.stack([
        rng.integers(0, q, size=n, dtype=np.uint64) for q in primes
    ])


def reference_forward(row, q):
    """Natural-order negacyclic forward transform by direct summation:
    ``X_k = sum_j x_j psi**((2k + 1) j)``, the order ``NegacyclicNtt``
    and the backends emit."""
    t = get_tables(len(row), q)
    folded = [int(x) * pow(t.psi, j, q) % q for j, x in enumerate(row)]
    return np.array(naive_ntt(folded, t.omega, q), dtype=np.uint64)


def _refused(call, q):
    with pytest.raises(HostModulusError, match=str(q)):
        call()


class TestHostModulusGate:
    """One typed refusal of every modulus from ``2**30`` up, on every
    host path, before any work; just below the edge everything runs."""

    WIDE = {"just above 2^30": _prime_just_above(2 * N, 1 << 30),
            "34-bit": find_ntt_prime(2 * N, 34)}
    HOST = {
        "numpy-fast": NumpyBackend,
        "numpy-clamped": lambda: NumpyBackend(mode="clamped"),
        "numpy-golden": lambda: NumpyBackend(mode="golden"),
        "compiled": CompiledBackend,
        "integrity-numpy": lambda: IntegrityBackend(NumpyBackend(), "detect"),
        "integrity-compiled": lambda: IntegrityBackend(CompiledBackend(),
                                                       "detect"),
    }

    def test_the_limit_is_2_30(self):
        assert HOST_MODULUS_LIMIT == 1 << 30
        assert issubclass(HostModulusError, ValueError)

    @pytest.mark.parametrize("width", WIDE)
    def test_rns_poly_refuses(self, width):
        """Over a 34-bit prime ``residues * residues % q`` wraps uint64,
        so a polynomial over it would multiply wrongly without a word."""
        q = self.WIDE[width]
        rows = _rand_rows((q,))
        # Under the process default (the VPU model in one CI step, which
        # would run the prime) and under the VPU model itself: the gate
        # is RnsPoly's, not a backend's.
        for backend in (get_backend(), VpuBackend(m=16)):
            with use_backend(backend):
                _refused(lambda: RnsPoly(rows, (q,), is_eval=True), q)
                _refused(lambda: RnsPoly.zero(
                    N, (find_ntt_prime(2 * N, 28), q)), q)
                _refused(lambda: RnsPoly.from_int_coeffs(np.arange(N), (q,)),
                         q)

    @pytest.mark.parametrize("width", WIDE)
    @pytest.mark.parametrize("backend", HOST)
    def test_host_backends_refuse(self, backend, width):
        q = self.WIDE[width]
        primes = (find_ntt_prime(2 * N, 28), q)
        rows = _rand_rows(primes)
        executor = self.HOST[backend]()
        _refused(lambda: executor.forward_ntt_batch(rows, primes), q)
        _refused(lambda: executor.inverse_ntt_batch(rows, primes), q)

    @pytest.mark.parametrize("width", WIDE)
    def test_host_transforms_refuse(self, width):
        q = self.WIDE[width]
        _refused(lambda: NegacyclicNtt(N, q), q)
        _refused(lambda: BatchedNegacyclicNtt(N, (q,)), q)

    @pytest.mark.parametrize("width", WIDE)
    def test_plaintext_modulus_refused(self, width):
        t = self.WIDE[width]
        _refused(lambda: BgvParams(n=N, plaintext_modulus=t), t)

    @pytest.mark.parametrize("backend", list(HOST) + ["vpu"])
    def test_just_below_the_edge_runs_bit_identical(self, backend):
        q = find_ntt_prime(2 * N, 30)
        assert q < HOST_MODULUS_LIMIT <= _prime_just_above(2 * N, q)
        primes = (q, find_ntt_prime(2 * N, 30, index=1))
        rows = _rand_rows(primes, seed=3)
        executor = (VpuBackend(m=16) if backend == "vpu"
                    else self.HOST[backend]())
        evals = executor.forward_ntt_batch(rows, primes)
        for row, value, p in zip(rows, evals, primes):
            np.testing.assert_array_equal(value, reference_forward(row, p))
        np.testing.assert_array_equal(
            executor.inverse_ntt_batch(evals, primes), rows)
        a, b = (RnsPoly(evals, primes, is_eval=True),
                RnsPoly(evals[:, ::-1].copy(), primes, is_eval=True))
        want = np.array([[int(x) * int(y) % p for x, y in zip(ra, rb)]
                         for ra, rb, p in zip(a.residues, b.residues, primes)],
                        dtype=np.uint64)
        np.testing.assert_array_equal((a * b).residues, want)

    @pytest.mark.parametrize("width", ["33-bit", "34-bit"])
    def test_the_vpu_keeps_64_bit_words(self, width):
        q = find_ntt_prime(2 * N, int(width[:2]))
        rows = _rand_rows((q,), seed=5)
        vpu = VpuBackend(m=16)
        evals = vpu.forward_ntt_batch(rows, (q,))
        np.testing.assert_array_equal(evals[0], reference_forward(rows[0], q))
        np.testing.assert_array_equal(vpu.inverse_ntt_batch(evals, (q,)),
                                      rows)


class TestGateAgainstHandFormula:
    def test_never_stricter_than_old_gate(self):
        """Every (log_n, q) the old hand inequality accepted, the
        analyzer-derived gate must also accept."""
        for log_n in (1, 6, 12, 16):
            for bits in (20, 28, 30, 31):
                try:
                    q = find_ntt_prime(1 << (log_n + 1), bits)
                except ValueError:
                    continue  # no prime of that width for this order
                old = (log_n + 1) * q * q < (1 << 64)
                new = unclamped_dit_ok(log_n, q)
                assert not (old and not new), (log_n, q)

    def test_refuses_too_wide_prime(self, boundary_primes):
        # 7 * (2^31)^2 > 2^64: the clamp-free pass is unsound for a
        # prime just below 2^31 at n = 64 (which the host also refuses).
        q = boundary_primes["below_2^31"]
        assert not unclamped_dit_ok(LOG_N, q)

    def test_accepts_shoup_edge_prime(self, boundary_primes):
        q = boundary_primes["below_2^30"]
        assert unclamped_dit_ok(LOG_N, q)
        # Derived bound is the exact +q-per-stage growth formula.
        assert unclamped_dit_lane_bound(LOG_N, q) == (LOG_N + 1) * q - 1

    def test_gate_flips_with_depth(self):
        """A modulus eligible at small n loses eligibility once the
        +q-per-stage growth makes the final product overflow."""
        q = find_ntt_prime(1 << 17, 31)
        assert unclamped_dit_ok(1, q) or not unclamped_dit_ok(16, q)
        # (log_n+1) * q^2 monotonically grows with log_n: once refused,
        # stays refused.
        refused = False
        for log_n in range(1, 17):
            ok = unclamped_dit_ok(log_n, q)
            if refused:
                assert not ok
            refused = refused or not ok


class TestBoundaryModuliBitEquality:
    @pytest.mark.parametrize("which", ["below_2^30", "above_2^30",
                                       "below_2^31"])
    def test_batched_matches_scalar_reference(self, boundary_primes, which):
        q = boundary_primes[which]
        if which != "below_2^30":
            _refused(lambda: BatchedNegacyclicNtt(N, (q,)), q)
            _refused(lambda: NegacyclicNtt(N, q), q)
            return
        batched = BatchedNegacyclicNtt(N, (q,))
        rows = _rand_rows((q,), seed=7)

        fwd = batched.forward(rows)
        np.testing.assert_array_equal(fwd[0], reference_forward(rows[0], q))
        np.testing.assert_array_equal(fwd[0],
                                      NegacyclicNtt(N, q).forward(rows[0]))

        inv = batched.inverse(fwd)
        np.testing.assert_array_equal(inv, rows)

    @pytest.mark.parametrize("which", ["below_2^30", "above_2^30"])
    def test_unclamped_and_clamped_kernels_agree(self, boundary_primes,
                                                 which):
        """Where both are legal, the clamp-free DIT pass and the lazy
        clamped pass are the same function mod q — bit-equal after the
        final reduction (the stage kernels themselves, below the gate)."""
        from repro.ntt.cooley_tukey import (
            dit_stages_lazy,
            dit_stages_unclamped,
        )

        q = boundary_primes[which]
        assert unclamped_dit_ok(LOG_N, q)
        q3 = np.array([[q]], dtype=np.uint64)[:, :, None]
        tw = [stage[None, None, :]
              for stage in get_tables(N, q).dit_stage_twiddles]
        rows = _rand_rows((q,), seed=11)

        fast = rows.copy()
        dit_stages_unclamped(fast, q3, tw)
        clamped = rows.copy()
        dit_stages_lazy(clamped, q3, 2 * q3, tw, None)
        np.testing.assert_array_equal(fast % np.uint64(q),
                                      clamped % np.uint64(q))

    def test_too_wide_prime_takes_clamped_path(self, boundary_primes):
        """The clamped inverse is what a 30-bit prime takes at n = 2**16,
        where 17 * q**2 no longer fits uint64; the widest prime of the
        old vectorized tier is refused."""
        q = boundary_primes["below_2^31"]
        _refused(lambda: BatchedNegacyclicNtt(N, (q,)), q)
        n = 1 << 16
        q = find_ntt_prime(2 * n, 30)
        batched = BatchedNegacyclicNtt(n, (q,))
        assert batched.inv_mode == 1  # gate refused the clamp-free pass
        assert BatchedNegacyclicNtt(n // 2, (q,)).inv_mode == 2
        rows = _rand_rows((q,), seed=13, n=n)
        evals = batched.forward(rows)
        np.testing.assert_array_equal(
            evals, batched.forward(rows, clamped=True))
        np.testing.assert_array_equal(batched.inverse(evals), rows)
        np.testing.assert_array_equal(
            batched.inverse(evals, clamped=True), rows)

    def test_mixed_width_stack_roundtrip(self, boundary_primes):
        """A stack with one prime past the edge is refused as a whole,
        naming that prime; the stack below the edge round-trips."""
        low, high = boundary_primes["below_2^30"], boundary_primes["above_2^30"]
        _refused(lambda: BatchedNegacyclicNtt(N, (low, high)), high)
        primes = (low, find_ntt_prime(2 * N, 29))
        batched = BatchedNegacyclicNtt(N, primes)
        rows = _rand_rows(primes, seed=17)
        np.testing.assert_array_equal(
            batched.inverse(batched.forward(rows)), rows)


class TestKeyswitchAccumulateFallbacks:
    def _synthetic(self, primes, num_digits, seed=0):
        rng = np.random.default_rng(seed)
        n = 16
        digits = []
        block = np.empty((num_digits, 2, len(primes), n), dtype=np.uint64)
        for i in range(num_digits):
            res = np.stack([
                rng.integers(0, q, size=n, dtype=np.uint64) for q in primes])
            digits.append(RnsPoly(res, primes, is_eval=True))
            for part in (0, 1):  # b_i, then a_i
                block[i, part] = np.stack([
                    rng.integers(0, q, size=n, dtype=np.uint64)
                    for q in primes])
        return digits, KeySwitchKey(block)

    def _reference(self, digits, ksk, keep, primes):
        q_col = np.array(primes, dtype=object)[:, None]
        acc0 = np.zeros_like(digits[0].residues, dtype=object)
        acc1 = np.zeros_like(digits[0].residues, dtype=object)
        for i, digit in enumerate(digits):
            b_i, a_i = ksk.block[i][:, keep].astype(object)
            d = digit.residues.astype(object)
            acc0 = (acc0 + d * b_i) % q_col
            acc1 = (acc1 + d * a_i) % q_col
        return acc0.astype(np.uint64), acc1.astype(np.uint64)

    @pytest.mark.parametrize("bits,num_digits", [
        (28, 3),    # lazy accumulate (toy regime)
        (30, 17),   # products fit uint64, but 17 accumulations do not
        (31, 16),   # past the host limit: refused
        (40, 3),    # past the host limit: refused
    ])
    def test_bit_equal_across_paths(self, bits, num_digits):
        primes = tuple(find_ntt_prime(64, bits, index=i) for i in range(2))
        if bits > 30:
            _refused(lambda: self._synthetic(primes, num_digits), primes[0])
            return
        assert keyswitch_lazy_accumulate_ok(num_digits, max(primes)) == \
            (num_digits < 17)
        keep = [0, 1]
        digits, ksk = self._synthetic(primes, num_digits, seed=bits)
        got0, got1 = accumulate_keyswitch(digits, ksk, keep, primes)
        want0, want1 = self._reference(digits, ksk, keep, primes)
        np.testing.assert_array_equal(got0.residues, want0)
        np.testing.assert_array_equal(got1.residues, want1)

    def test_gate_selects_expected_paths(self):
        """Below 2**30 a digit-key product always fits uint64; the
        accumulator stays lazy up to 16 digits and reduces per step
        from 17."""
        q28 = find_ntt_prime(64, 28)
        q30 = find_ntt_prime(64, 30)
        assert keyswitch_lazy_accumulate_ok(3, q28)
        assert keyswitch_lazy_accumulate_ok(16, q30)
        assert not keyswitch_lazy_accumulate_ok(17, q30)
        assert mul_fits_uint64(HOST_MODULUS_LIMIT - 1, HOST_MODULUS_LIMIT - 1)

    def test_lazy_threshold_is_exact(self):
        """The gate accepts exactly up to D * (q-1)^2 <= 2^64 - 1."""
        q = (1 << 32) + 1  # (q-1)^2 == 2^64 exactly
        assert not keyswitch_lazy_accumulate_ok(1, q)
        q = 1 << 32  # (q-1)^2 < 2^64: one product fits, two do not
        assert keyswitch_lazy_accumulate_ok(1, q)
        assert not keyswitch_lazy_accumulate_ok(2, q)
