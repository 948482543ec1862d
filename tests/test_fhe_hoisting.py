"""Tests for hoisted rotations (shared digit decomposition)."""

import numpy as np
import pytest

from repro.fhe import keyswitch
from repro.fhe.backend import (
    IntegrityBackend,
    NumpyBackend,
    VpuBackend,
    use_backend,
)
from repro.fhe.ckks import CkksContext
from repro.fhe.params import toy_params
from repro.kernels import CompiledBackend


@pytest.fixture(scope="module")
def ctx():
    context = CkksContext(toy_params(), seed=55)
    context.generate_galois_keys([1, 2, 3, 4])
    return context


def rand(ctx, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-1, 1, ctx.params.slots)
            + 1j * rng.uniform(-1, 1, ctx.params.slots))


class TestHoistedRotations:
    def test_matches_individual_rotations(self, ctx):
        z = rand(ctx, 0)
        ct = ctx.encrypt(z)
        hoisted = ctx.rotate_hoisted(ct, [1, 2, 4])
        for steps, h in zip([1, 2, 4], hoisted):
            individual = ctx.decrypt(ctx.rotate(ct, steps))
            np.testing.assert_allclose(ctx.decrypt(h), individual, atol=1e-3)
            np.testing.assert_allclose(ctx.decrypt(h), np.roll(z, -steps),
                                       atol=2e-3)

    def test_zero_rotation_passthrough(self, ctx):
        z = rand(ctx, 1)
        ct = ctx.encrypt(z)
        [out] = ctx.rotate_hoisted(ct, [0])
        np.testing.assert_allclose(ctx.decrypt(out), z, atol=1e-3)

    def test_missing_key_raises(self, ctx):
        ct = ctx.encrypt(rand(ctx, 2))
        with pytest.raises(KeyError):
            ctx.rotate_hoisted(ct, [7])

    def test_rotate_sum_via_hoisting(self, ctx):
        """The BSGS inner loop shape: all baby rotations from one
        decomposition, then summed."""
        z = rand(ctx, 3)
        ct = ctx.encrypt(z)
        rotations = ctx.rotate_hoisted(ct, [0, 1, 2, 3])
        acc = rotations[0]
        for r in rotations[1:]:
            acc = ctx.add(acc, r)
        expected = z + np.roll(z, -1) + np.roll(z, -2) + np.roll(z, -3)
        np.testing.assert_allclose(ctx.decrypt(acc), expected, atol=5e-3)

    def test_kernel_savings(self, ctx):
        """Hoisting must hit the NTT backend far fewer times than
        individual rotations (the whole point)."""
        from repro.fhe import backend as backend_mod

        class CountingBackend(backend_mod.NumpyBackend):
            def __init__(self):
                self.ntt_calls = 0

            def forward_ntt_batch(self, residues, primes):
                self.ntt_calls += len(primes)
                return super().forward_ntt_batch(residues, primes)

            def inverse_ntt_batch(self, values, primes):
                self.ntt_calls += len(primes)
                return super().inverse_ntt_batch(values, primes)

        z = rand(ctx, 4)
        ct = ctx.encrypt(z)
        steps = [1, 2, 3, 4]

        counter = CountingBackend()
        with backend_mod.use_backend(counter):
            ctx.rotate_hoisted(ct, steps)
        hoisted_calls = counter.ntt_calls

        counter = CountingBackend()
        with backend_mod.use_backend(counter):
            for s in steps:
                ctx.rotate(ct, s)
        individual_calls = counter.ntt_calls

        assert hoisted_calls < individual_calls / 1.5


class DecompositionCounter:
    """Counts ``decompose_digits`` calls and backend kernel dispatches."""

    def __init__(self, monkeypatch):
        from repro.fhe import backend as backend_mod
        from repro.fhe import keyswitch

        self.decompositions = 0
        self.dispatches = 0
        original = keyswitch.decompose_digits
        counter = self

        def counted(x, params):
            counter.decompositions += 1
            return original(x, params)

        class Counting(backend_mod.NumpyBackend):
            def forward_ntt_batch(self, residues, primes):
                counter.dispatches += 1
                return super().forward_ntt_batch(residues, primes)

            def inverse_ntt_batch(self, values, primes):
                counter.dispatches += 1
                return super().inverse_ntt_batch(values, primes)

            def automorphism_eval_batch(self, values, galois_k, primes):
                counter.dispatches += 1
                return super().automorphism_eval_batch(values, galois_k,
                                                       primes)

        monkeypatch.setattr(keyswitch, "decompose_digits", counted)
        self.backend = Counting()


class TestValidatesBeforeItSpends:
    def test_missing_key_raises_before_any_kernel(self, ctx, monkeypatch):
        counter = DecompositionCounter(monkeypatch)
        ct = ctx.encrypt(rand(ctx, 5))
        from repro.fhe.backend import use_backend

        with use_backend(counter.backend):
            with pytest.raises(KeyError, match="rotation 7"):
                ctx.rotate_hoisted(ct, [1, 2, 7])
        assert (counter.decompositions, counter.dispatches) == (0, 0)

    @pytest.mark.parametrize("steps", [[], [0], [0, 0],
                                       [toy_params().n // 2]])
    def test_steps_that_rotate_nothing_decompose_nothing(self, ctx, steps,
                                                         monkeypatch):
        counter = DecompositionCounter(monkeypatch)
        z = rand(ctx, 6)
        ct = ctx.encrypt(z)
        from repro.fhe.backend import use_backend

        with use_backend(counter.backend):
            out = ctx.rotate_hoisted(ct, steps)
        assert (counter.decompositions, counter.dispatches) == (0, 0)
        assert len(out) == len(steps)
        for same in out:
            assert same is not ct
            assert all(np.array_equal(p.residues, q.residues)
                       for p, q in zip(same.parts, ct.parts))

    def test_duplicate_steps_share_one_accumulation(self, ctx, monkeypatch):
        from repro.fhe import keyswitch
        from repro.fhe.backend import use_backend

        counter = DecompositionCounter(monkeypatch)
        accumulations = []
        original = keyswitch.accumulate_keyswitch

        def counted(digits, ksk, keep, primes):
            accumulations.append(ksk)
            return original(digits, ksk, keep, primes)

        monkeypatch.setattr(keyswitch, "accumulate_keyswitch", counted)
        ct = ctx.encrypt(rand(ctx, 7))
        slots = ctx.params.slots
        with use_backend(counter.backend):
            out = ctx.rotate_hoisted(ct, [2, 1, 2, 2 + slots, 0])
        assert counter.decompositions == 1
        assert len(accumulations) == 2  # steps 2 and 1
        first, _, second, third, _ = out
        for twin in (second, third):
            assert twin is not first
            assert all(np.array_equal(p.residues, q.residues)
                       for p, q in zip(twin.parts, first.parts))

    @pytest.mark.parametrize("make", [
        NumpyBackend, CompiledBackend,
        lambda: IntegrityBackend(CompiledBackend(), "detect"),
        lambda: VpuBackend(m=16),
    ], ids=["numpy", "compiled", "compiled-detect", "vpu"])
    def test_no_keys_switch_nothing(self, ctx, make, monkeypatch):
        """No keys: ``[]`` on every backend, before any decomposition
        or kernel call."""
        counter = DecompositionCounter(monkeypatch)
        x = ctx.encrypt(rand(ctx, 8)).parts[1]
        backend = make()
        with use_backend(backend):
            assert keyswitch.hoisted_keyswitch(x, [], [], ctx.params) == []
        guarded = getattr(backend, "inner", backend)
        assert counter.decompositions == 0
        assert getattr(guarded, "kernel_invocations", 0) == 0
        assert getattr(backend, "checker", None) is None \
            or backend.checker.checks == 0


class TestPlainRotationSchedule:
    """A plain rotation is the one Galois fold with one element: ``c0``
    and ``c1`` are permuted, then ``c1`` is decomposed — the dispatches
    of an HRot before hoisting existed."""

    @pytest.fixture(scope="class")
    def ct(self, ctx):
        return ctx.encrypt(rand(ctx, 9))

    def test_kernel_sequence(self, ctx, ct):
        class Sequence(NumpyBackend):
            def __init__(self):
                super().__init__()
                self.calls = []

            def forward_ntt_batch(self, residues, primes):
                self.calls.append(("fwd", len(primes)))
                return super().forward_ntt_batch(residues, primes)

            def inverse_ntt_batch(self, values, primes):
                self.calls.append(("inv", len(primes)))
                return super().inverse_ntt_batch(values, primes)

            def automorphism_eval_batch(self, values, galois_k, primes):
                self.calls.append(("auto", len(primes)))
                return super().automorphism_eval_batch(values, galois_k,
                                                       primes)

        backend = Sequence()
        with use_backend(backend):
            ctx.rotate(ct, 1)
        assert ct.level + 1 == 3
        assert backend.calls == [
            ("auto", 3), ("auto", 3), ("inv", 3), ("fwd", 9),
            ("inv", 1), ("fwd", 3), ("inv", 1), ("fwd", 3)]

    def test_compiled_permutes_c0_and_gathers_the_digits(self, ctx, ct):
        class Rows(CompiledBackend):
            def __init__(self):
                super().__init__()
                self.automorphism_rows = 0
                self.galois = []

            def automorphism_eval_batch(self, values, galois_k, primes):
                self.automorphism_rows += len(primes)
                return super().automorphism_eval_batch(values, galois_k,
                                                       primes)

            def keyswitch_apply(self, residues, primes, key_blocks, keep,
                                galois=None, ticks=None, check=None):
                self.galois.append(galois)
                return super().keyswitch_apply(residues, primes, key_blocks,
                                               keep, galois, ticks, check)

        golden = NumpyBackend()
        with use_backend(golden):
            want = ctx.rotate(ct, 1)
        backend = Rows()
        with use_backend(backend):
            ctx.rotate(ct, 1)  # first use: the slot's phased oracle runs
            backend.automorphism_rows = 0
            got = ctx.rotate(ct, 1)
        assert backend.automorphism_rows == ct.level + 1  # L, not 2 L
        assert backend.galois[-1] == [pow(5, 1, 2 * ctx.params.n)]
        assert all(np.array_equal(a.residues, b.residues)
                   for a, b in zip(got.parts, want.parts))

    @pytest.mark.parametrize("inner", [CompiledBackend, NumpyBackend],
                             ids=["compiled", "numpy"])
    def test_ten_checks_under_detect(self, ctx, ct, inner):
        guard = IntegrityBackend(inner(), "detect")
        with use_backend(guard):
            ctx.rotate(ct, 1)  # first use
            before = guard.checker.checks
            ctx.rotate(ct, 1)
        assert guard.checker.checks - before == 10
        assert guard.checker.mismatches == 0
