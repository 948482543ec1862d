"""The ABFT integrity layer: detection, bounded replay, degradation."""

import numpy as np
import pytest

from repro.accel.dram import DramModel
from repro.accel.parallel import ParallelVpuPool
from repro.arith.primes import find_ntt_prime, find_ntt_primes
from repro.fault.injector import FaultInjector, FaultSpec, use_fault_hook
from repro.fault.integrity import SPARE_MODULUS, AbftChecker
from repro.fault.policy import IntegrityPolicy
from repro.fhe.backend import (
    IntegrityBackend,
    NumpyBackend,
    VpuBackend,
    clear_caches,
    use_backend,
)
from repro.ntt.negacyclic import NegacyclicNtt

N = 64
M = 16
PRIMES = tuple(find_ntt_primes(2 * N, 28, 3))


def _rows(seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, q, size=N, dtype=np.uint64)
                     for q in PRIMES])


def _golden_batch(rows: np.ndarray) -> np.ndarray:
    return np.stack([NegacyclicNtt(N, q).forward(rows[i])
                     for i, q in enumerate(PRIMES)])


class TestAbftChecker:
    def test_clean_ntt_batch_passes(self):
        rows = _rows()
        assert AbftChecker().check_ntt_batch(rows, _golden_batch(rows),
                                             PRIMES)

    def test_single_bitflip_in_any_row_is_detected(self):
        rows = _rows()
        outputs = _golden_batch(rows)
        for row in range(len(PRIMES)):
            corrupted = outputs.copy()
            corrupted[row, 17] ^= np.uint64(1 << 9)
            assert not AbftChecker().check_ntt_batch(rows, corrupted, PRIMES)

    def test_inverse_batch_checked(self):
        rows = _rows()
        values = _golden_batch(rows)
        checker = AbftChecker()
        assert checker.check_ntt_batch(values, rows, PRIMES, inverse=True)
        bad = rows.copy()
        bad[0, 0] ^= np.uint64(1)
        assert not checker.check_ntt_batch(values, bad, PRIMES, inverse=True)
        assert checker.checks == 2 and checker.mismatches == 1

    def test_automorphism_batch(self):
        rows = _rows()
        backend = NumpyBackend()
        out = backend.automorphism_eval_batch(rows, 5, PRIMES)
        checker = AbftChecker()
        assert checker.check_automorphism_batch(rows, out, 5)
        bad = out.copy()
        bad[1, 3] += np.uint64(1)
        assert not checker.check_automorphism_batch(rows, bad, 5)

    def test_keyswitch_spare_modulus(self):
        rng = np.random.default_rng(11)
        q = PRIMES[0]
        digit = rng.integers(0, q, size=(4, 3, N), dtype=np.uint64)
        key = rng.integers(0, q, size=(4, 3, N), dtype=np.uint64)
        acc = (digit * key).sum(axis=0)  # exact: 4 * (2**28)**2 < 2**64
        checker = AbftChecker()
        assert checker.check_keyswitch_accumulation(acc, digit, key)
        acc[1, 5] ^= np.uint64(1 << 40)
        assert not checker.check_keyswitch_accumulation(acc, digit, key)
        assert (1 << 40) % SPARE_MODULUS != 0  # why the flip cannot hide


class TestPolicyParsing:
    def test_aliases(self):
        assert IntegrityPolicy.parse("off") is IntegrityPolicy.OFF
        assert IntegrityPolicy.parse("retry") is IntegrityPolicy.DETECT_RETRY
        assert IntegrityPolicy.parse("detect+retry") is \
            IntegrityPolicy.DETECT_RETRY
        assert IntegrityPolicy.parse("degrade") is \
            IntegrityPolicy.DETECT_DEGRADE
        assert IntegrityPolicy.parse(IntegrityPolicy.DETECT) is \
            IntegrityPolicy.DETECT

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            IntegrityPolicy.parse("yolo")


class TestIntegrityBackendOff:
    def test_off_is_bit_exact_with_zero_checks(self):
        rows = _rows()
        backend = IntegrityBackend(NumpyBackend(), "off")
        out = backend.forward_ntt_batch(rows, PRIMES)
        assert np.array_equal(out, NumpyBackend().forward_ntt_batch(
            rows, PRIMES))
        assert backend.checker.checks == 0
        assert backend.detections == 0

    def test_off_adds_zero_modeled_cycles(self):
        x, primes = _rows()[:1], PRIMES[:1]  # one row: the L = 1 batch
        plain = VpuBackend(M)
        base = plain.forward_ntt_batch(x, primes)
        inner = VpuBackend(M)
        wrapped = IntegrityBackend(inner, "off")
        out = wrapped.forward_ntt_batch(x, primes)
        assert np.array_equal(base, out)
        assert inner.vpu.stats.cycles == plain.vpu.stats.cycles


class TestDetectAndRetry:
    def test_detect_flags_but_keeps_result(self):
        spec = FaultSpec("alu", "stuck1", cycle=0, bit=33, lane=2)
        inner = VpuBackend(M)
        inner.vpu.install_fault_hook(FaultInjector([spec]))
        backend = IntegrityBackend(inner, "detect")
        out = backend.forward_ntt_batch(_rows(), PRIMES)
        assert backend.detections >= 1 and backend.flagged >= 1
        assert backend.retries == 0
        assert not np.array_equal(out, _golden_batch(_rows()))

    def test_retry_corrects_single_bitflip(self):
        spec = FaultSpec("alu", "transient", cycle=3, bit=9, lane=1)
        inner = VpuBackend(M)
        injector = FaultInjector([spec])
        inner.vpu.install_fault_hook(injector)
        backend = IntegrityBackend(inner, "retry")
        with use_fault_hook(injector):
            out = backend.forward_ntt_batch(_rows(), PRIMES)
        assert np.array_equal(out, _golden_batch(_rows()))
        assert backend.detections >= 1
        assert backend.retries >= 1
        assert backend.corrected >= 1
        # The injector was credited with the detection and its latency.
        assert injector.detection_latencies

    def test_retry_exhaustion_surfaces_flagged_result(self):
        spec = FaultSpec("alu", "stuck1", cycle=0, bit=33, lane=2)
        inner = VpuBackend(M)
        inner.vpu.install_fault_hook(FaultInjector([spec]))
        backend = IntegrityBackend(inner, "retry", max_retries=2)
        out = backend.forward_ntt_batch(_rows(), PRIMES)
        assert backend.retries == 2 and backend.flagged == 1
        assert not np.array_equal(out, _golden_batch(_rows()))


class TestDegradation:
    def test_stuck_dram_degrades_to_clean_path(self):
        # bit 62 is clear in every residue, so the stuck-at always fires
        # and persists across replays — only leaving the faulty link
        # (degrade) can win.
        spec = FaultSpec("dram", "stuck1", cycle=0, bit=62, lane=5)
        injector = FaultInjector([spec])
        backend = IntegrityBackend(VpuBackend(M), "degrade",
                                   max_retries=1, dram=DramModel())
        with use_fault_hook(injector):
            out = backend.forward_ntt_batch(_rows(), PRIMES)
        assert np.array_equal(out, _golden_batch(_rows()))
        assert backend.degrade_level >= 1
        assert backend.degradations >= 1

    def test_quarantine_then_ladder(self):
        spec = FaultSpec("alu", "stuck1", cycle=0, bit=33, lane=2)
        inner = VpuBackend(M)
        inner.vpu.install_fault_hook(FaultInjector([spec]))
        backend = IntegrityBackend(inner, "degrade", max_retries=1,
                                   quarantine_threshold=1)
        out = backend.forward_ntt_batch(_rows(), PRIMES)
        assert np.array_equal(out, _golden_batch(_rows()))
        assert inner.quarantined_programs  # the program was blacklisted
        assert backend.degrade_level >= 1
        inner.clear_caches()
        assert inner.quarantined_programs == ()

    def test_module_clear_caches_clears_active_backend(self):
        inner = VpuBackend(M)
        backend = IntegrityBackend(inner, "retry")
        inner.quarantine_program("ntt", N, PRIMES[0])
        with use_backend(backend):
            clear_caches()
        assert inner.quarantined_programs == ()


class TestKeyswitchIntegrity:
    def test_spare_channel_recovers_corrupted_accumulator(self):
        from repro.fhe.keyswitch import apply_keyswitch, generate_keyswitch_key
        from repro.fhe.params import toy_params
        from repro.fhe.sampling import sample_uniform_poly

        params = toy_params()
        rng = np.random.default_rng(33)
        full = params.primes + (params.special_prime,)
        s_from = sample_uniform_poly(params.n, full, rng)
        s_to = sample_uniform_poly(params.n, full, rng)
        ksk = generate_keyswitch_key(params, s_from, s_to, rng)
        x = sample_uniform_poly(params.n, params.primes, rng)
        with use_backend(NumpyBackend()):
            g0, g1 = apply_keyswitch(x, ksk, params)
        spec = FaultSpec("keyswitch", "bitflip", cycle=0, bit=40, lane=7)
        backend = IntegrityBackend(NumpyBackend(), "retry")
        with use_backend(backend), use_fault_hook(FaultInjector([spec])):
            p0, p1 = apply_keyswitch(x, ksk, params)
        assert np.array_equal(p0.residues, g0.residues)
        assert np.array_equal(p1.residues, g1.residues)
        assert backend.keyswitch_detections >= 1
        assert backend.keyswitch_recomputed >= 1

    def test_integrity_counters_shape(self):
        backend = IntegrityBackend(NumpyBackend(), "retry")
        counters = backend.integrity_counters()
        assert counters["checks"] == 0
        assert set(counters) >= {"detections", "corrected", "retries",
                                 "flagged", "degrade_level",
                                 "keyswitch_detections"}


class TestParallelPoolIntegrity:
    def test_faulty_vpu_is_quarantined_and_work_replays(self):
        q = find_ntt_prime(2 * N, 28)
        rng = np.random.default_rng(5)
        limbs = rng.integers(0, q, size=(4, N), dtype=np.uint64)
        clean_pool = ParallelVpuPool(2, M, q)
        golden, _ = clean_pool.run_ntt_batch(limbs, N)
        pool = ParallelVpuPool(2, M, q, policy="retry")
        pool.vpus[0].install_fault_hook(FaultInjector(
            [FaultSpec("alu", "stuck1", cycle=0, bit=33, lane=0)]))
        out, report = pool.run_ntt_batch(limbs, N)
        assert np.array_equal(out, golden)
        assert report.detections >= 1
        assert report.retries >= 1
        assert 0 in report.quarantined_vpus

    def test_degrade_falls_back_to_golden_row(self):
        q = find_ntt_prime(2 * N, 28)
        rng = np.random.default_rng(6)
        limbs = rng.integers(0, q, size=(3, N), dtype=np.uint64)
        golden, _ = ParallelVpuPool(1, M, q).run_ntt_batch(limbs, N)
        pool = ParallelVpuPool(1, M, q, policy="degrade", max_retries=1)
        for vpu in pool.vpus:  # every unit faulty: replay cannot win
            vpu.install_fault_hook(FaultInjector(
                [FaultSpec("alu", "stuck1", cycle=0, bit=33, lane=0)]))
        out, report = pool.run_ntt_batch(limbs, N)
        assert np.array_equal(out, golden)
        assert report.degraded >= 1

    def test_off_policy_pool_unchanged(self):
        q = find_ntt_prime(2 * N, 28)
        rng = np.random.default_rng(8)
        limbs = rng.integers(0, q, size=(4, N), dtype=np.uint64)
        pool = ParallelVpuPool(2, M, q)
        out, report = pool.run_ntt_batch(limbs, N)
        assert report.detections == 0 and report.quarantined_vpus == ()
        assert report.speedup >= 1.0
        assert out.shape == limbs.shape
