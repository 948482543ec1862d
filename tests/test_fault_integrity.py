"""The ABFT integrity layer: detection, bounded replay, degradation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.dram import DramModel
from repro.analysis.bounds import checksum_dot_lazy_ok
from repro.arith.modular import mod_inverse
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
from repro.fhe.keyswitch import KeySwitchKey, accumulate_keyswitch
from repro.fhe.polynomial import RnsPoly
from repro.kernels import CompiledBackend
from repro.ntt.negacyclic import (
    HOST_MODULUS_LIMIT,
    HostModulusError,
    NegacyclicNtt,
)

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


def _transform(kind: str, x: np.ndarray, q: int) -> np.ndarray:
    """The golden-model oracle of the two maps the checker knows."""
    golden = NegacyclicNtt(len(x), q)
    if kind == "intt":
        return np.asarray(golden.inverse(x))
    return np.asarray(golden.forward(x))


def _synthetic_keyswitch(num_digits: int = 4, seed: int = 11):
    """Digits over limbs ``keep`` of a 3-limb key, and their exact
    unreduced accumulators (``4 * (2**28)**2 < 2**64``)."""
    rng = np.random.default_rng(seed)
    full, keep = PRIMES[:1] * 3, [0, 2]

    def poly(limbs):
        return RnsPoly(rng.integers(0, PRIMES[0], size=(limbs, N),
                                    dtype=np.uint64), full[:limbs],
                       is_eval=True)

    digits = [poly(2) for _ in range(num_digits)]
    ksk = KeySwitchKey(np.stack([[poly(3).residues for _ in range(2)]
                                 for _ in range(num_digits)]))
    accs = [sum(d.residues * key[part][keep]
                for d, key in zip(digits, ksk.block)) for part in (0, 1)]
    return accs, digits, ksk, keep


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
        accs, digits, ksk, keep = _synthetic_keyswitch()
        checker = AbftChecker()
        assert checker.check_keyswitch_accumulation(
            accs, digits, ksk, keep) == (True, True)
        accs[1][1, 5] ^= np.uint64(1 << 40)
        assert checker.check_keyswitch_accumulation(
            accs, digits, ksk, keep) == (True, False)
        assert (1 << 40) % SPARE_MODULUS != 0  # why the flip cannot hide
        assert checker.checks == 4 and checker.mismatches == 1


#: Just below 2**28 and 2**30; just below 2**31 and one wide modulus are
#: past the host limit, where the checker refuses to build weight tables.
WEIGHT_BITS = (28, 30, 31, 40)
KINDS = ("ntt", "intt")


def _weights(checker: AbftChecker, n: int, q: int, kind: str):
    """``(r, w)`` of a weight table, reassembled from the halves."""
    return tuple(halves[0].astype(object) + (halves[1].astype(object) << 15)
                 for halves in checker._weight_table(n, q, kind))


class TestWeightVectors:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bits", WEIGHT_BITS)
    @pytest.mark.parametrize("n", [64, 1024, 8192])
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_checksum_identity(self, n, bits, kind, seed):
        """``<r, M x> == <w, x> (mod q)`` for the table's own ``r, w``,
        and the checker's dot products agree with it; a modulus past the
        host limit gets no table (one golden host transform builds it)."""
        q = find_ntt_prime(2 * n, bits)
        assert checksum_dot_lazy_ok(n, q - 1, q) == (bits < 40)
        x = np.random.default_rng(seed).integers(0, q, size=n,
                                                 dtype=np.uint64)
        checker = AbftChecker(seed % 7)
        if q >= HOST_MODULUS_LIMIT:
            with pytest.raises(HostModulusError, match=str(q)):
                checker.faulty_ntt_rows(x[None, :], x[None, :], (q,), kind)
            return
        y = _transform(kind, x, q)
        r, w = _weights(checker, n, q, kind)
        assert all(0 < v < q for v in r) and all(0 < v < q for v in w)
        assert (r * y.astype(object)).sum() % q == \
            (w * x.astype(object)).sum() % q
        assert checker.faulty_ntt_rows(x[None, :], y[None, :], (q,),
                                       kind) == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_single_word_fault_is_flagged_and_its_row_named(self, kind):
        primes = PRIMES[:2] + PRIMES[:1]  # rows 0 and 2 share a modulus
        inputs = _rows()
        outputs = np.stack([_transform(kind, inputs[i], q)
                            for i, q in enumerate(primes)])
        checker = AbftChecker()
        assert checker.faulty_ntt_rows(inputs, outputs, primes, kind) == []
        for side in (inputs, outputs):
            for row in range(len(primes)):
                for pos in range(N):
                    for bit in (0, 9, 27, 31, 63):
                        clean = side[row, pos]
                        side[row, pos] = clean ^ np.uint64(1 << bit)
                        assert checker.faulty_ntt_rows(
                            inputs, outputs, primes, kind) == [row]
                        side[row, pos] = clean

    def test_errors_in_two_rows_cannot_cancel(self):
        """The batch check this one replaced folded the rows of one
        modulus into ``sum_r c_r * y_r`` before comparing, so errors
        with ``c_0 e_0 + c_1 e_1 == 0`` escaped it; rows judged one by
        one leave nothing to cancel against."""
        q = PRIMES[0]
        rows = _rows()[[0, 0]]
        rows[1] = rows[1][::-1]
        outputs = np.stack([_transform("ntt", row, q) for row in rows])
        # The coefficients that check drew for its first batch, seed 0.
        c0, c1 = (int(c) for c in np.random.default_rng(0).integers(
            1, q, size=2, dtype=np.uint64))
        e0 = 1
        e1 = -c0 * mod_inverse(c1, q) % q
        assert (c0 * e0 + c1 * e1) % q == 0
        outputs[0, 7] = (int(outputs[0, 7]) + e0) % q
        outputs[1, 7] = (int(outputs[1, 7]) + e1) % q
        assert AbftChecker(0).faulty_ntt_rows(rows, outputs, (q, q),
                                              "ntt") == [0, 1]

    def test_weights_and_verdicts_do_not_depend_on_check_order(self):
        rows = _rows()
        outputs = _golden_batch(rows)
        bad = outputs.copy()
        bad[1, 3] ^= np.uint64(4)
        calls = [
            lambda c: c.check_ntt_batch(rows, outputs, PRIMES),
            lambda c: c.check_ntt_batch(rows, bad, PRIMES),
            lambda c: c.check_ntt_batch(outputs, rows, PRIMES, inverse=True),
            lambda c: c.check_ntt_batch(rows[:1], outputs[:1], PRIMES[:1]),
            lambda c: c.check_ntt_batch(rows[2:], outputs[2:], PRIMES[2:]),
        ]
        first, second = AbftChecker(5), AbftChecker(5)
        verdicts = [call(first) for call in calls]
        assert verdicts == [True, False, True, True, True]
        assert [call(second) for call in calls[::-1]] == verdicts[::-1]
        assert first._weights.keys() == second._weights.keys()
        for key, tables in first._weights.items():
            for mine, theirs in zip(tables, second._weights[key]):
                assert np.array_equal(mine, theirs)
        other_seed = _weights(AbftChecker(6), N, PRIMES[0], "ntt")
        assert not np.array_equal(other_seed[0],
                                  _weights(first, N, PRIMES[0], "ntt")[0])

    def test_rows_past_the_uint64_gate_are_checked_exactly(self):
        """A word congruent to the right one but 2**63 large would wrap
        a uint64 dot product; the exact path still accepts it, and
        still flags the same word off by one."""
        q = PRIMES[0]
        rows = _rows()[:1]
        outputs = _golden_batch(_rows())[:1]
        outputs[0, 11] += np.uint64(((1 << 63) // q) * q)
        assert not checksum_dot_lazy_ok(N, int(outputs.max()), q)
        checker = AbftChecker()
        assert checker.check_ntt_batch(rows, outputs, (q,))
        outputs[0, 11] += np.uint64(1)
        assert not checker.check_ntt_batch(rows, outputs, (q,))

    def test_bench_shape_digit_batch_on_compiled_backend(self):
        """The e2e shape's digit matrix, 72 x 8192 (8 digits over 8
        chain primes + the special one, 30 bits): clean passes, one
        flipped word in either direction names its row."""
        n, limbs = 8192, 8
        primes = tuple(find_ntt_primes(2 * n, 30, limbs + 1)) * limbs
        rng = np.random.default_rng(16)
        rows = np.stack([rng.integers(0, q, size=n, dtype=np.uint64)
                         for q in primes])
        backend = CompiledBackend()
        outputs = backend.forward_ntt_batch(rows, primes)
        checker = AbftChecker()
        assert checker.check_ntt_batch(rows, outputs, primes)
        assert checker.check_ntt_batch(
            outputs, backend.inverse_ntt_batch(outputs, primes), primes,
            inverse=True)
        outputs[41, 5000] ^= np.uint64(1 << 3)
        assert checker.faulty_ntt_rows(rows, outputs, primes, "ntt") == [41]
        assert checker.faulty_ntt_rows(outputs, rows, primes, "intt") == [41]


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

    @pytest.mark.parametrize("inner", [NumpyBackend, CompiledBackend])
    def test_off_keyswitch_runs_as_on_the_bare_backend(self, inner,
                                                       monkeypatch):
        """OFF exposes no check and forwards the wrapped backend's fused
        kernel: the accumulation makes exactly the stack copies the bare
        backend makes (none on numpy; the digit stack on compiled, whose
        key rows are read from the key block) and is bit-identical to
        it."""
        _, digits, ksk, keep = _synthetic_keyswitch()
        primes = digits[0].primes
        stacks = []
        stack = np.stack
        monkeypatch.setattr(np, "stack",
                            lambda *a, **k: stacks.append(1) or stack(*a, **k))
        results = []
        for backend in (inner(), IntegrityBackend(inner(), "off")):
            del stacks[:]
            with use_backend(backend):
                parts = accumulate_keyswitch(digits, ksk, keep, primes)
            results.append((len(stacks), [p.residues for p in parts]))
        (bare_stacks, bare), (off_stacks, off) = results
        assert off_stacks == bare_stacks
        assert bare_stacks == (0 if inner is NumpyBackend else 1)
        assert all(np.array_equal(a, b) for a, b in zip(bare, off))
        assert backend.checker.checks == 0
        assert not hasattr(backend, "check_keyswitch_accumulation")
        assert hasattr(backend, "keyswitch_inner_product") == \
            hasattr(backend.inner, "keyswitch_inner_product")
        detecting = IntegrityBackend(inner(), "detect")
        assert hasattr(detecting, "check_keyswitch_accumulation")
        assert not hasattr(detecting, "keyswitch_inner_product")


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
        inner.quarantine_program("ntt", N)
        backend.forward_ntt_batch(_rows()[1:], PRIMES[1:])
        accs, digits, ksk, keep = _synthetic_keyswitch()
        assert backend.check_keyswitch_accumulation(
            *accs, digits, ksk, keep) == (True, True)
        checker = backend.checker
        assert len(checker._weights) == 2 and len(checker._key_images) == 1
        with use_backend(backend):
            clear_caches()
        assert inner.quarantined_programs == ()
        # The weight tables and key spare images go too: a set-up timed
        # after a reset must pay for rebuilding them.
        assert not checker._weights and not checker._key_images


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

