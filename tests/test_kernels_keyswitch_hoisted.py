"""Hoisted rotations as one kernel: the ``keyswitch_apply`` slot, G > 1.

``repro_ks_apply`` transforms each digit row once and accumulates it
into ``G`` rotations, each reading it through its Galois table against
its own key block.  ``rotate_hoisted`` through the slot must be bit for
bit ``K`` plain rotations — every ``K``, every level, both sides of the
OpenMP threshold — must stay phased under a fault hook, must decline
where a gate or the provider is missing, must refuse ragged arguments
before the foreign call, and under a checking policy must record a
pinned number of checks and flag a stuck word of one rotation's key
block, of its Galois table and of a forward twiddle.  (The decline and
ragged-argument checks are the ``G = 1`` ones of
``tests/test_kernels_keyswitch_fused.py``, called with ``G = 3``.)
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.arith.primes import find_ntt_primes
from repro.automorphism.mapping import galois_eval_permutation
from repro.fault.injector import FaultInjector, use_fault_hook
from repro.fault.integrity import AbftChecker
from repro.fhe import keyswitch
from repro.fhe.backend import IntegrityBackend, NumpyBackend, use_backend
from repro.fhe.ckks import CkksContext
from repro.fhe.params import CkksParams, toy_params
from repro.fhe.serialize import ciphertext_digest
from repro.kernels import CompiledBackend, cext
from repro.kernels.backend import get_destinations
from repro.ntt.negacyclic import get_batched_ntt
from tests.test_fault_integrity_fused import flipped
from tests.test_kernels_keyswitch_fused import (
    UNSCHEDULED,
    SpyBackend,
    _mutant_provider,
    _on_numpy,
    _synthetic,
    assert_declines_before_allocating,
    assert_ragged_arguments_refused,
    assert_reduced_walk_matches_phased,
    assert_unscheduled_chain_declines,
)

pytestmark = pytest.mark.skipif(
    CompiledBackend().provider_name is None,
    reason="no compiled provider available (needs a C compiler)")

N = 64
STEPS = [1, 2, 3, 4, 5, 6, 7, 8]


def _digests(cts):
    return [ciphertext_digest(ct) for ct in cts]


def assert_hoisted_is_k_plain_rotations(n, levels):
    """Every ``K`` in 1..8 at every level of one context: the slot's
    ciphertexts digest-equal to plain rotations on the same backend and
    on numpy, with a zero, a duplicate and a negative step among them."""
    params = (toy_params() if n == N else
              CkksParams(n=n, levels=levels, scale_bits=26, prime_bits=28))
    ctx = CkksContext(params, seed=n)
    ctx.generate_galois_keys(STEPS + [-3])
    top = ctx.encrypt(np.random.default_rng(n).uniform(-1, 1,
                                                       ctx.params.slots))
    spy = SpyBackend()
    for level in range(params.levels):
        ct = ctx.mod_reduce(top, level)
        for count in range(1, len(STEPS) + 1):
            steps = STEPS[:count] + [0, STEPS[0], -3]
            golden = _on_numpy(lambda: [ctx.rotate(ct, s) for s in steps])
            with use_backend(spy):
                del spy.taken[:]
                hoisted = ctx.rotate_hoisted(ct, steps)
                # One call, over the distinct non-zero steps.
                assert spy.taken == [("keyswitch_apply", count + 1, True)] \
                    + [("drop_top_limb", True)] * (2 * (count + 1))
                plain = [ctx.rotate(ct, s) for s in steps]
            assert _digests(hoisted) == _digests(plain) == _digests(golden), \
                (n, level, count)


class TestBitIdentity:
    @pytest.mark.parametrize("n, levels", [(N, 3), (8192, 3)])
    def test_every_k_and_level(self, n, levels):
        assert_hoisted_is_k_plain_rotations(n, levels)

    def test_the_same_with_two_openmp_threads(self):
        """``(L + 1) * n`` on either side of the 16384 threshold, with
        the threads actually there (the e2e driver pins one)."""
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider",
             f"{__file__}::TestBitIdentity::test_every_k_and_level"],
            env={**os.environ, "OMP_NUM_THREADS": "2",
                 "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, timeout=600)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_reduced_accumulator_threaded(self):
        assert_reduced_walk_matches_phased(3)

    def test_every_backend_agrees_at_the_bench_shape(self):
        """n = 8192, L = 8: numpy, compiled, compiled under ``detect``
        (the VPU model runs the same phased path as numpy and is pinned
        at its own sizes by ``tests/test_fhe_vpu_backend.py``)."""
        ctx = CkksContext(CkksParams(n=8192, levels=8, scale_bits=29,
                                     prime_bits=30), seed=1)
        ctx.generate_galois_keys([1, 2, 3])
        ct = ctx.encrypt(np.linspace(-1, 1, ctx.params.slots))
        golden = _digests(_on_numpy(
            lambda: [ctx.rotate(ct, s) for s in (1, 2, 3)]))
        for backend in (NumpyBackend(), CompiledBackend(),
                        IntegrityBackend(CompiledBackend(), "detect")):
            with use_backend(backend):
                assert _digests(ctx.rotate_hoisted(ct, [1, 2, 3])) == golden


@pytest.fixture(scope="module")
def ctx():
    context = CkksContext(toy_params(), seed=31)
    context.generate_galois_keys(STEPS)
    return context


@pytest.fixture(scope="module")
def ct(ctx):
    return ctx.encrypt(np.linspace(-1, 1, ctx.params.slots))


class TestWhoTakesTheSlot:
    def test_fault_hook_keeps_the_phased_path(self, ctx, ct):
        golden = _on_numpy(lambda: [ctx.rotate(ct, s) for s in STEPS[:3]])
        spy = SpyBackend()
        with use_backend(spy), use_fault_hook(FaultInjector()):
            assert keyswitch._fused_slot("keyswitch_apply") is None
            hoisted = ctx.rotate_hoisted(ct, STEPS[:3])
        assert spy.taken == []
        assert _digests(hoisted) == _digests(golden)

    def test_numpy_has_no_slot_and_decomposes_once(self, ctx, ct):
        assert not hasattr(NumpyBackend(), "keyswitch_apply")
        limbs = ct.level + 1

        class Counting(NumpyBackend):
            digit_batches = 0

            def forward_ntt_batch(self, residues, primes):
                self.digit_batches += len(primes) == limbs * limbs
                return super().forward_ntt_batch(residues, primes)

        counting = Counting()
        with use_backend(counting):
            ctx.rotate_hoisted(ct, STEPS)
        assert counting.digit_batches == 1

    @pytest.mark.parametrize("chain", UNSCHEDULED)
    def test_a_chain_without_a_schedule_declines(self, chain):
        assert_unscheduled_chain_declines(UNSCHEDULED[chain], 3)

    def test_no_provider_declines_before_allocating(self, monkeypatch):
        assert_declines_before_allocating(monkeypatch, 3)


class TestRaggedArgumentsNeverReachC:
    PRIMES = tuple(find_ntt_primes(2 * N, 30, 4))

    def test_the_slot_refuses(self):
        assert_ragged_arguments_refused(3)

    def test_the_binding_refuses(self):
        provider = cext.load_provider()
        plan = get_batched_ntt(N, self.PRIMES)
        x, ksk, _ = _synthetic(self.PRIMES)
        keep = np.arange(4, dtype=np.int64)
        table = get_destinations(N, 5)
        work = np.zeros((5 * 3 + 3, N), dtype=np.uint32)

        def call(keys, tables, count):
            acc = [np.full((count, 4, N), 0xDEAD, dtype=np.uint64)
                   for _ in range(2)]
            with pytest.raises(ValueError, match="ks_apply"):
                provider.ks_apply(plan, x.residues, keys, keep, *acc, work,
                                  None, None, tables)
            assert all((a == 0xDEAD).all() for a in acc)

        call([ksk.block] * 2, [table], 2)              # 2 keys, 1 table
        call([ksk.block], [table[:-1]], 1)             # short table
        call([ksk.block], [table.astype(np.int32)], 1)
        call([ksk.block, ksk.block[:, :, :3]], None, 2)  # ragged blocks
        call([ksk.block] * 2, None, 1)                 # accumulators for one
        call([], None, 0)


# -- under a checking policy ----------------------------------------------------


def _checked_call(backend, checker, x, primes, blocks, galois):
    check = checker.fused_check(N, primes, blocks, galois)
    accs = backend.keyswitch_apply(x.residues, primes, blocks,
                                   list(range(len(primes))), galois,
                                   check=check)
    assert accs is not None
    return check


def _verdicts(flagged, count):
    """``check_fused``'s verdicts for ``count`` rotations with exactly
    the named positions False: ``"inverse"`` / ``"forward"``, or
    ``(g, "acc0" | "acc1" | "table")``."""
    names = ["inverse", "forward"] + [
        (g, what) for g in range(count) for what in ("acc0", "acc1", "table")]
    return tuple(name not in flagged for name in names)


def assert_detects_each_stuck_word(backend):
    """On ``backend``'s provider: a clean call passes every check; a
    stuck word of rotation 1's key block, of rotation 2's Galois table
    and of a forward twiddle are each flagged, the first two by name."""
    primes = TestRaggedArgumentsNeverReachC.PRIMES
    x, first, _ = _synthetic(primes, seed=8)
    blocks = [first.block] + [_synthetic(primes, seed=9 + g)[1].block
                              for g in (1, 2)]
    galois = [5, 25, 125]
    checker = AbftChecker(1)

    def run():
        return checker.check_fused(
            _checked_call(backend, checker, x, primes, blocks, galois))

    assert run() == _verdicts([], 3)
    assert checker.checks == 2 + 3 * 3
    with flipped(blocks[1], (2, 1, 3, 9), bit=5):  # digit 2, the a part
        assert run() == _verdicts([(1, "acc1")], 3)
    # The MAC and the spare channel read through the same table, so a
    # wrong table leaves the spare identity intact: only its own check
    # sees it.
    table = get_destinations(N, pow(125, -1, 2 * N))
    with flipped(table.view(np.uint64), 7):
        assert run() == _verdicts([(2, "table")], 3)
    with flipped(get_batched_ntt(N, primes).twf, (2, 0)):
        assert run()[:2] == (True, False)
    assert run() == _verdicts([], 3)  # every flip is gone


class TestDetection:
    def test_each_stuck_word_is_flagged_and_named(self):
        assert_detects_each_stuck_word(CompiledBackend())

    @pytest.mark.parametrize("old, new", [
        # The spare channel of every rotation against rotation 0's image.
        ("check->key_images[g] + key_row", "check->key_images[0] + key_row"),
        # ... or reading the digit row straight, not through the table.
        ("const u64 d = dq[src ? src[k] : k];", "const u64 d = dq[k];"),
    ], ids=["spare-reads-one-image", "spare-ignores-the-table"])
    def test_a_stubbed_spare_channel_fails_it(self, tmp_path, old, new):
        backend = CompiledBackend(
            provider=_mutant_provider(tmp_path, old, new))
        with pytest.raises(AssertionError):
            assert_detects_each_stuck_word(backend)

    def test_a_stubbed_table_check_fails_it(self):
        """A binding that reports the tables it *should* have handed
        the kernel instead of those it did."""
        class Lying(cext.CExtProvider):
            def ks_apply(self, plan, x, keys, keep, acc0, acc1, work,
                         ticks=None, check=None, tables=None):
                super().ks_apply(plan, x, keys, keep, acc0, acc1, work,
                                 ticks, check, tables)
                if check is not None:
                    check.tables = [
                        np.argsort(
                            galois_eval_permutation(N, k).destinations())
                        for k in check.galois]

        lying = Lying.__new__(Lying)
        lying.__dict__.update(cext.load_provider().__dict__)
        with pytest.raises(AssertionError):
            assert_detects_each_stuck_word(CompiledBackend(provider=lying))

    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_pinned_check_count(self, ctx, ct, count):
        """``2 + 8 K``: the inverse and forward row-NTT batches once a
        call; per rotation two accumulators and the Galois table
        (in-kernel), the ``c0`` permutation replay, and two checks for
        each of its two ModDowns.  (``K`` plain rotations: ``10 K``.)"""
        golden = _on_numpy(lambda: [ctx.rotate(ct, s) for s in STEPS[:count]])
        spy = SpyBackend()
        guard = IntegrityBackend(spy, "detect")
        with use_backend(guard):
            ctx.rotate_hoisted(ct, STEPS[:count])  # first use
            before = guard.checker.checks
            del spy.taken[:]
            hoisted = ctx.rotate_hoisted(ct, STEPS[:count])
            assert guard.checker.checks - before == 2 + 8 * count
            assert _digests(hoisted) == _digests(golden)
            before = guard.checker.checks
            ctx.rotate(ct, 1)
            assert guard.checker.checks - before == 10
        assert guard.checker.mismatches == 0 and guard.detections == 0
        assert spy.taken[0] == ("keyswitch_apply", count, True)
        assert getattr(guard, "keyswitch_apply").__self__ is guard

    @pytest.mark.parametrize("policy", ["detect", "retry", "degrade"])
    @pytest.mark.parametrize("site", ["key", "table"])
    def test_policies_flag_or_rerun_phased(self, ctx, ct, policy, site):
        steps = STEPS[:3]
        golden = _on_numpy(lambda: [ctx.rotate(ct, s) for s in steps])
        spy = SpyBackend()
        guard = IntegrityBackend(spy, policy, max_retries=1)
        n = ctx.params.n
        k = pow(5, steps[1], 2 * n)
        fault = (flipped(ctx.galois_keys[k].block, (1, 0, 2, 9), bit=5)
                 if site == "key" else
                 flipped(get_destinations(n, pow(k, -1, 2 * n))
                         .view(np.uint64), 7))
        with use_backend(guard):
            assert _digests(ctx.rotate_hoisted(ct, steps)) == _digests(golden)
            del spy.taken[:]
            with fault:
                out = ctx.rotate_hoisted(ct, steps)
        assert spy.taken[0] == ("keyswitch_apply", 3, True)
        assert guard.detections >= 1 and guard.keyswitch_detections >= 1
        same = [a == b for a, b in zip(_digests(out), _digests(golden))]
        if policy == "detect":
            # Flag and keep: the other two rotations are untouched.
            assert same == [True, False, True] and guard.flagged >= 1
            assert [entry for entry in spy.taken
                    if entry[0] == "keyswitch_apply"] == spy.taken[:1]
        elif site == "key":
            # Declined; the phased rerun reads the same stuck key word,
            # its spare check fails again and that accumulator is
            # recomputed on the reduced channel -- from the same word.
            assert same == [True, False, True]
            assert guard.keyswitch_recomputed >= 1
        else:
            # Declined; the phased rerun permutes through the backend's
            # destination tables, which the stuck word is not in.
            assert all(same)
