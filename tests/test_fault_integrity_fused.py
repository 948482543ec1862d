"""Integrity checks inside the row-fused keyswitch.

Under a checking policy ``IntegrityBackend`` offers ``keyswitch_apply``
and ``drop_top_limb`` *checked*: the compiled kernel takes the ABFT sums
of its own row NTTs and accumulators, ``AbftChecker`` judges them.  The
results must stay bit-identical to every other path, the recorded
checks must be the phased path's one for one, a fault the phased checks
would catch must be caught here too — with no injection port: the
faults below are a flipped word of a cached twiddle table, of a key
block and of an input row — and the numpy checks are the oracle of the
C sums.
"""

import os
import subprocess
import sys
from contextlib import ExitStack

import numpy as np
import pytest

from repro.accel.dram import DramModel
from repro.accel.sram import OnChipSram
from repro.analysis.bounds import CHECKSUM_HALF_BITS
from repro.arith.primes import find_ntt_prime, find_ntt_primes
from repro.fault.injector import FaultInjector, use_fault_hook
from repro.fault.integrity import SPARE_MODULUS, AbftChecker, _checksums
from repro.fhe import keyswitch
from repro.fhe.backend import (
    IntegrityBackend,
    NumpyBackend,
    VpuBackend,
    use_backend,
)
from repro.fhe.ckks import CkksContext
from repro.fhe.params import toy_params
from repro.fhe.polynomial import RnsPoly
from repro.fhe.rns import get_basis
from repro.fhe.sampling import sample_uniform_poly
from repro.kernels import CompiledBackend
from repro.ntt.negacyclic import HostModulusError, get_batched_ntt
from repro.obs import observe
from tests.test_kernels_keyswitch_fused import (
    SLOTS,
    SpyBackend,
    _ckks_rounds,
    _mutant_provider,
    _on_numpy,
    _phased,
    _same,
    _synthetic,
    assert_host_refuses,
)

pytestmark = pytest.mark.skipif(
    CompiledBackend().provider_name is None,
    reason="no compiled provider available (needs a C compiler)")

N = 64
CHECKING = ("detect", "retry", "degrade")
COUNTS = {"hmult": 12, "hrot": 10, "keyswitch": 8, "rescale": 4}


class BatchSpy(SpyBackend):
    """Also notes every batch NTT dispatched to the backend."""

    def _ntt_batch(self, values, primes, inverse):
        self.taken.append(("intt" if inverse else "ntt", len(primes)))
        return super()._ntt_batch(values, primes, inverse)


# -- (a) bit-identity, every policy, every level, both sides of OpenMP -------

_IDENTITY_SCRIPT = """
import numpy as np
from repro.fhe.backend import IntegrityBackend, NumpyBackend, use_backend
from repro.fhe.ckks import Ciphertext, CkksContext
from repro.fhe.params import CkksParams
from repro.fhe.rlwe import tensor
from repro.kernels import CompiledBackend

for n in (256, 8192):  # (L + 1) * n below and above the 16384 threshold
    ctx = CkksContext(CkksParams(n=n, levels=3, scale_bits=26,
                                 prime_bits=28), seed=7)
    ctx.generate_galois_keys([1])
    rng = np.random.default_rng(n)
    top = [ctx.encrypt(rng.uniform(-1, 1, ctx.params.slots))
           for _ in range(2)]
    ops = {}
    for level in (2, 1, 0):  # top, middle, one limb
        a, b = (ctx.mod_reduce(ct, level) for ct in top)
        three = Ciphertext(tensor(a, b), a.scale * b.scale)
        ops[level, "hrot"] = lambda a=a: ctx.rotate(a, 1)
        ops[level, "relinearize"] = lambda t=three: ctx.relinearize(t)
        ops[level, "hmult"] = lambda a=a, b=b, r=level > 0: ctx.multiply(
            a, b, rescale_after=r)
        if level:
            ops[level, "rescale"] = lambda t=three: ctx.rescale(t)
    guards = {policy: IntegrityBackend(CompiledBackend(), policy)
              for policy in ("off", "detect", "retry", "degrade")}
    results = {}
    for name, backend in {"numpy": NumpyBackend(),
                          "compiled": CompiledBackend(), **guards}.items():
        with use_backend(backend):
            results[name] = {key: op() for key, op in ops.items()}
    for name, outs in results.items():
        for key, out in outs.items():
            assert all(np.array_equal(p.residues, g.residues) for p, g in
                       zip(out.parts, results["numpy"][key].parts)), (n, name, key)
    for policy, guard in guards.items():
        assert guard.checker.mismatches == 0 and guard.detections == 0
        assert (guard.checker.checks > 0) == (policy != "off")
        # 3 + 3 + 2 keyswitches and the top-limb drops around them, all
        # fused: the wrapped backend saw no batch NTT but its oracles'.
        # (The three hmults' tensor products are a kernel under off only.)
        assert guard.inner.kernel_invocations == \\
            guards["off"].inner.kernel_invocations - 3 * (policy != "off"), \\
            policy
print("ok")
"""


class TestBitIdentity:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_every_policy_level_and_thread_count(self, threads):
        result = subprocess.run(
            [sys.executable, "-c", _IDENTITY_SCRIPT],
            env={**os.environ, "OMP_NUM_THREADS": threads,
                 "REPRO_BACKEND": "numpy",
                 "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"


# -- (b) the same checks, from the fused slots --------------------------------


@pytest.fixture(scope="module")
def rounds():
    context = CkksContext(toy_params(), seed=21)
    context.generate_galois_keys([1])
    return _ckks_rounds(context)


class TestSameChecksFromTheFusedSlots:
    @pytest.mark.parametrize("policy", CHECKING)
    def test_counts_and_no_batch_ntt(self, rounds, policy):
        golden = _on_numpy(lambda: {k: op() for k, op in rounds.items()})
        spy = BatchSpy()
        guard = IntegrityBackend(spy, policy)
        with use_backend(guard):
            for op in rounds.values():
                op()  # first use: the slots' oracles dispatch batch NTTs
            del spy.taken[:]
            counts = {}
            for kind, op in rounds.items():
                before = guard.integrity_counters()["checks"]
                assert _same(op().parts, golden[kind].parts)
                counts[kind] = guard.integrity_counters()["checks"] - before
        assert counts == COUNTS
        assert guard.checker.mismatches == 0 and guard.detections == 0
        # hmult: 1 keyswitch + 2 mod_down + 2 rescale; hrot and
        # keyswitch: 1 + 2; rescale: 2 -- and nothing else.
        assert spy.taken == (
            [("keyswitch_apply", 1, True)] + [("drop_top_limb", True)] * 4
            + ([("keyswitch_apply", 1, True)]
               + [("drop_top_limb", True)] * 2) * 2
            + [("drop_top_limb", True)] * 2)

    def test_observed_checked_call_prices_the_guard(self):
        """The fifth tick slot: a checked call's trace has a
        ``keyswitch.check`` phase next to the three an unchecked call
        has, inside the wrapped backend's kernel span."""
        primes = tuple(find_ntt_primes(2 * N, 30, 4))
        x, ksk, params = _synthetic(primes)
        names = {}
        for policy in ("off", "detect"):
            with use_backend(IntegrityBackend(CompiledBackend(), policy)):
                keyswitch.apply_keyswitch(x, ksk, params)  # first use
                with observe() as session:
                    keyswitch.apply_keyswitch(x, ksk, params)
            kernel, = [s for s in session.tracer.spans
                       if s.name == "compiled.keyswitch.apply"]
            names[policy] = [s.name for s in kernel.children]
            wall = kernel.end_ns - kernel.start_ns
            assert 0 < sum(s.end_ns - s.start_ns
                           for s in kernel.children) <= wall
        assert names["off"] == ["keyswitch.decompose", "keyswitch.ntt",
                                "keyswitch.inner_product"]
        assert names["detect"] == names["off"] + ["keyswitch.check"]


# -- (d) the numpy checks are the oracle of the C sums -------------------------


def _forward_pairs(limbs):
    """``(digit, target limb)`` of every forward row NTT, in the order
    the phased keyswitch batches them and the kernel numbers them."""
    return [(i, j) for i in range(limbs) for j in range(limbs + 1) if j != i]


def _phased_rows(x, primes):
    """Inputs and outputs of a keyswitch's row NTTs, phase by phase on
    numpy: the inverse batch, then the off-diagonal forward batch."""
    limbs = len(primes) - 1
    numpy = NumpyBackend()
    coeff = numpy.inverse_ntt_batch(x, primes[:-1])
    pairs = _forward_pairs(limbs)
    lifted = np.stack([
        (np.where(coeff[i].astype(np.int64) > primes[i] // 2,
                  coeff[i].astype(np.int64) - primes[i],
                  coeff[i].astype(np.int64)) % primes[j]).astype(np.uint64)
        for i, j in pairs])
    moduli = tuple(primes[j] for _, j in pairs)
    return coeff, lifted, numpy.forward_ntt_batch(lifted, moduli), moduli


def _reduced(sums, moduli):
    """The kernel's unreduced half sums as ``<v, row> mod q`` values."""
    q = np.array(moduli, dtype=np.uint64)[:, None]
    return (sums[:, :, 0] % q
            + (sums[:, :, 1] % q << CHECKSUM_HALF_BITS)) % q


def _assert_sums_match_numpy(backend, checker, x, primes, ksk, keep):
    """One checked keyswitch: every sum the kernel exported equals the
    numpy checksum of the same row recomputed phase by phase, and the
    verdict equals ``faulty_ntt_rows`` / ``check_keyswitch_accumulation``."""
    limbs = len(primes) - 1
    check = checker.fused_check(x.shape[1], primes, [ksk.block])
    accs = backend.keyswitch_apply(x, primes, [ksk.block], keep,
                                   check=check)
    assert accs is not None
    coeff, lifted, digits, moduli = _phased_rows(x, primes)

    sides = _reduced(check.sums, primes[:-1] + moduli)
    for kind, rows, (inputs, outputs), row_moduli in (
            ("intt", slice(0, limbs), (x, coeff), primes[:-1]),
            ("ntt", slice(limbs, None), (lifted, digits), moduli)):
        for row, q in enumerate(row_moduli):
            r, w = checker._weight_table(x.shape[1], q, kind)
            assert sides[rows][row, 0] == _checksums(inputs[row:row + 1], w, q)
            assert sides[rows][row, 1] == _checksums(outputs[row:row + 1], r, q)
    assert checker.faulty_fused_rows(check) == (
        checker.faulty_ntt_rows(x, coeff, primes[:-1], "intt"),
        checker.faulty_ntt_rows(lifted, digits, moduli, "ntt"))

    # The spare channel, against the unreduced accumulators rebuilt
    # from the phased digits (diagonal rows are x itself).
    tensor = np.empty((limbs, limbs + 1, x.shape[1]), dtype=np.uint64)
    for i in range(limbs):
        tensor[i, i] = x[i]
    for row, (i, j) in zip(digits, _forward_pairs(limbs)):
        tensor[i, j] = row
    polys = [RnsPoly(rows, primes, is_eval=True) for rows in tensor]
    unreduced = [sum(tensor[i] * ksk.block[i, part][keep]
                     for i in range(limbs)) for part in (0, 1)]
    qs = np.uint64(SPARE_MODULUS)
    spare, = check.spare  # one rotation: the plain keyswitch
    for part, acc in enumerate(unreduced):
        assert np.array_equal(spare[:, part, 0], (acc % qs).sum(axis=1))
        # ... and the channel: per digit row one dot product against
        # the key image, reduced, summed over the digits.
        channel = sum((tensor[i] % qs * (ksk.block[i, part][keep] % qs)
                       ).sum(axis=1) % qs for i in range(limbs))
        assert np.array_equal(spare[:, part, 1], channel)
        assert np.array_equal(spare[:, part, 0] % qs, channel % qs)
        assert np.array_equal(
            accs[part][0], acc % np.array(primes, dtype=np.uint64)[:, None])
    oracle = AbftChecker()
    assert checker.check_fused(check) == (True, True) + \
        oracle.check_keyswitch_accumulation(unreduced, polys, ksk, keep)
    return check


def _one_level_down(primes):
    """A keyswitch one level below the top of a 4-limb chain, so
    ``keep`` is not the identity: ``(x, level primes + special, key,
    keep)``."""
    x, ksk, _ = _synthetic(primes)
    return (x.residues[:3], primes[:3] + primes[4:], ksk, [0, 1, 2, 4])


class TestNumpyChecksAreTheOracleOfTheCSums:
    PRIMES = tuple(find_ntt_primes(2 * N, 30, 5))

    @pytest.mark.parametrize("bits", [28, 30, 31])
    def test_keyswitch_sums_and_verdicts(self, bits):
        """From 2^30 up no compiled NTT is proven and the host refuses
        the chain: no polynomial, and no weight tables to check with."""
        primes = tuple(find_ntt_primes(2 * N, bits, 5))
        backend, checker = CompiledBackend(), AbftChecker(3)
        if bits <= 30:
            _assert_sums_match_numpy(backend, checker,
                                     *_one_level_down(primes))
            return
        assert_host_refuses(primes)
        with pytest.raises(HostModulusError, match=str(primes[0])):
            checker.fused_check(N, primes)
        assert backend.kernel_invocations == 0

    def test_drop_top_sums_and_verdicts(self):
        """A drop of the top of ``R`` limbs runs ``R`` row NTTs — the
        top row's inverse at 0, remaining limb ``j``'s forward of the
        lifted top row at ``1 + j`` — and each of their sums is the
        numpy checksum of the same row."""
        primes = self.PRIMES
        rest, q_top = primes[:-1], primes[-1]
        x = sample_uniform_poly(N, primes, np.random.default_rng(2)).residues
        basis = get_basis(rest, q_top)
        inv = basis.special_inv_mod_chain
        checker = AbftChecker(4)
        check = checker.fused_check(N, primes)
        out = CompiledBackend().drop_top_limb(x, primes, inv, check=check)
        numpy = NumpyBackend()
        top = numpy.inverse_ntt_batch(x[-1:], primes[-1:])
        signed = top[0].astype(np.int64)
        centered = np.where(signed > q_top // 2, signed - q_top, signed)
        lifted = np.stack([(centered % q).astype(np.uint64) for q in rest])
        images = numpy.forward_ntt_batch(lifted, rest)
        assert check.spare is None
        assert check.sums.shape == (len(primes), 2, 2)
        assert list(check.row_moduli) == [q_top, *rest]
        assert checker.faulty_fused_rows(check) == ([], []) == (
            checker.faulty_ntt_rows(x[-1:], top, primes[-1:], "intt"),
            checker.faulty_ntt_rows(lifted, images, rest, "ntt"))
        sides = _reduced(check.sums, (q_top,) + rest)
        r, w = checker._weight_table(N, q_top, "intt")
        assert sides[0, 0] == _checksums(x[-1:], w, q_top)
        assert sides[0, 1] == _checksums(top, r, q_top)
        for row, q in enumerate(rest):
            r, w = checker._weight_table(N, q, "ntt")
            assert sides[1 + row, 0] == _checksums(lifted[row:row + 1], w, q)
            assert sides[1 + row, 1] == _checksums(images[row:row + 1], r, q)
        # ... and the element-wise finish outside the brackets.
        q_col = np.array(rest, dtype=np.uint64)[:, None]
        assert np.array_equal(out, (x[:-1] + (q_col - images)) % q_col
                              * np.asarray(inv, dtype=np.uint64)[:, None]
                              % q_col)
        assert checker.check_fused(check) == (True, True)
        assert checker.checks == 2

    @pytest.mark.parametrize("old, new", [
        # The input sum taken after the in-place transform.
        ("""                i64 ns = check_row(check, 1, j, r, 0, row, n, ticks);
                plan_fwd(plan, j, n, row, lanes, row);
""", """                plan_fwd(plan, j, n, row, lanes, row);
                i64 ns = check_row(check, 1, j, r, 0, row, n, ticks);
"""),
        # The spare channel reading the b image for both key parts.
        ("image, image + K * n", "image, image"),
        # The output weights r on the input side.
        ("table + (4 * l + 2 * side) * n", "table + (4 * l + 2) * n"),
    ], ids=["input-sum-after-transform", "spare-reads-b-image-twice",
            "output-weights-on-the-input-side"])
    def test_a_wrong_check_loop_disagrees_with_numpy(self, tmp_path, old,
                                                     new):
        """The loops under test produce sums, not residues, so the
        first-use self-check cannot see them: the oracle comparison
        does."""
        backend = CompiledBackend(
            provider=_mutant_provider(tmp_path, old, new))
        with pytest.raises(AssertionError):
            _assert_sums_match_numpy(backend, AbftChecker(3),
                                     *_one_level_down(self.PRIMES))

    def test_the_unmutated_loops_agree_on_the_same_inputs(self):
        _assert_sums_match_numpy(CompiledBackend(), AbftChecker(3),
                                 *_one_level_down(self.PRIMES))


# -- (c) detection, without an injection port ----------------------------------


class flipped:
    """One word of ``table`` flipped for the duration of the block."""

    def __init__(self, table, index, bit=0):
        self.table, self.index, self.mask = table, index, np.uint64(1 << bit)

    def __enter__(self):
        self.table[self.index] ^= self.mask

    def __exit__(self, *exc):
        self.table[self.index] ^= self.mask


class TestDetection:
    PRIMES = tuple(find_ntt_primes(2 * N, 30, 4))

    @pytest.fixture
    def case(self):
        """A keyswitch whose plan, weight tables and key image exist
        and whose first-use self-check has passed."""
        x, ksk, params = _synthetic(self.PRIMES, seed=8)
        checker = AbftChecker(1)
        backend = CompiledBackend()
        keep = [0, 1, 2, 3]

        def run(residues=x.residues):
            check = checker.fused_check(N, self.PRIMES, [ksk.block])
            backend.keyswitch_apply(residues, self.PRIMES, [ksk.block],
                                    keep, check=check)
            return check

        assert checker.check_fused(run()) == (True,) * 4
        return x, ksk, params, checker, run

    def test_stuck_forward_twiddle_names_the_rows_of_its_limb(self, case):
        *_, checker, run = case
        target = 2
        with flipped(get_batched_ntt(N, self.PRIMES).twf, (target, 0)):
            check = run()
        assert checker.faulty_fused_rows(check) == (
            [], [row for row, (_, j) in enumerate(_forward_pairs(3))
                 if j == target])
        # (A Shoup product against the wrong twiddle is not even below
        # 2q, so the accumulators built from those digits may wrap and
        # fail their spare identity as well.)
        assert checker.check_fused(check)[:2] == (True, False)
        assert checker.check_fused(run()) == (True,) * 4  # the flip is gone

    def test_stuck_inverse_twiddle_names_its_row(self, case):
        *_, checker, run = case
        with flipped(get_batched_ntt(N, self.PRIMES).twi, (1, 3)):
            check = run()
        # The inverse is the lazy Shoup schedule: the stuck word (1 -> 0)
        # meets its old companion, the product wraps below zero in its
        # 32-bit lane and digit 1's coefficient row leaves the reduced
        # range -- but a lane wraps at 2**32, so no word reaches it.
        # Digit 1's forward rows fold those words and transform them
        # correctly, their sums unsaturated: the inverse row is named,
        # and no other.
        assert checker.faulty_fused_rows(check) == ([1], [])
        assert checker.check_fused(check) == (False, True, True, True)

    @pytest.mark.parametrize("part", [0, 1])
    def test_key_word_corrupted_after_its_image_names_the_accumulator(
            self, case, part):
        _, ksk, _, checker, run = case
        with flipped(ksk.block, (1, part, 3, 9), bit=5):
            check = run()
        assert checker.faulty_fused_rows(check) == ([], [])
        expected = [True] * 4
        expected[2 + part] = False
        assert checker.check_fused(check) == tuple(expected)
        limb_sides = check.spare[0, :, part] % np.uint64(SPARE_MODULUS)
        assert (limb_sides[:, 0] != limb_sides[:, 1]).tolist() == \
            [False, False, False, True]  # the special-prime limb, row 3

    def test_a_word_of_2_to_the_32_is_a_mismatch_not_a_wrap(self, case):
        x, *_, checker, run = case
        wide = x.residues.copy()
        wide[1, 7] += np.uint64(self.PRIMES[1] << 34)  # congruent, but wide
        check = run(wide)
        assert 1 in checker.faulty_fused_rows(check)[0]
        assert (check.sums[1, 0] == np.iinfo(np.uint64).max).all()
        assert not checker.check_fused(check)[0]

    @pytest.mark.parametrize("policy", CHECKING)
    @pytest.mark.parametrize("both_paths", [False, True],
                             ids=["fused-plan-only", "phased-plan-too"])
    def test_policies_flag_or_fall_back_to_the_phased_path(self, case,
                                                           policy,
                                                           both_paths):
        """The same stuck word in the fused call's plan and — with
        ``both_paths`` — in the plan of the phased forward batch (its
        nine rows are a shape, hence a table copy, of their own)."""
        x, ksk, params, *_ = case
        golden = _on_numpy(
            lambda: keyswitch.apply_keyswitch(x, ksk, params))
        spy = BatchSpy()
        guard = IntegrityBackend(spy, policy, max_retries=1)
        batch_primes = tuple(self.PRIMES[j] for _, j in _forward_pairs(3))
        with use_backend(spy):  # first use of the batch shapes, unfaulted
            assert _same(_phased(x, ksk, params), golden)
        with use_backend(guard), ExitStack() as stack:
            assert _same(keyswitch.apply_keyswitch(x, ksk, params), golden)
            del spy.taken[:]
            stack.enter_context(flipped(get_batched_ntt(N, self.PRIMES).twf, (2, 0)))
            if both_paths:
                stack.enter_context(flipped(
                    get_batched_ntt(N, batch_primes).twf,
                    (batch_primes.index(self.PRIMES[2]), 0)))
            out = keyswitch.apply_keyswitch(x, ksk, params)
        assert spy.taken[0] == ("keyswitch_apply", 1, True)
        assert guard.detections >= 1
        if policy == "detect":
            # Flag, keep the (wrong) fused result, dispatch nothing more.
            assert spy.taken == [("keyswitch_apply", 1, True)]
            assert guard.flagged >= 1 and guard.retries == 0
            assert not _same(out, golden)
            assert guard.checker.checks == 8
            return
        # "Not taken": the keyswitch reruns phase by phase, through the
        # per-dispatch replay.
        assert spy.taken[1:3] == [("intt", 3), ("ntt", 9)]
        assert guard.flagged == 0 or both_paths
        if not both_paths:
            assert _same(out, golden) and guard.retries == 0
            assert guard.checker.checks == 12
        else:
            # ... where the forward batch is caught again and replayed;
            # only the ladder leaves the faulty table.
            assert guard.retries >= 1
            assert spy.taken.count(("ntt", 9)) >= 2
            assert _same(out, golden) == (policy == "degrade")
            if policy == "degrade":
                assert guard.degrade_level >= 1
                assert not any(hasattr(guard, slot) for slot in SLOTS)

    @pytest.mark.parametrize("policy", ["detect", "retry"])
    @pytest.mark.parametrize("table, index, rows", [
        # The inverse's last step writes one wrong word of the top
        # coefficient row.
        ("unfold", (3, 9), ([0], [])),
        # The forward transform of limb 1 reads one wrong word of its
        # lifted row (the psi fold is its first touch of the row).
        ("psi", (1, 9), ([], [1])),
        ("twf", (2, 0), ([], [2])),
    ], ids=["top-word", "lifted-word", "fwd-twiddle"])
    def test_drop_brackets_each_row_ntt(self, policy, table, index, rows):
        """What the drop's walk brackets: the top row's inverse and
        every remaining limb's forward transform.  ``detect`` flags and
        keeps the result; a replaying policy declines, so the division
        reruns phase by phase — the same two batches, one inverse row
        and ``R - 1`` forward rows, each on a plan of its own shape —
        and records the same two checks as the checked fused call."""
        primes = self.PRIMES
        basis = get_basis(primes[:-1], primes[-1])
        t = sample_uniform_poly(N, primes, np.random.default_rng(5))
        golden = _on_numpy(lambda: keyswitch.mod_down(t, basis))
        spy = BatchSpy()
        guard = IntegrityBackend(spy, policy, max_retries=1)
        with use_backend(guard):
            assert _same([keyswitch.mod_down(t, basis)], [golden])
            assert (guard.checker.checks, guard.detections) == (2, 0)
            with flipped(getattr(get_batched_ntt(N, primes), table), index):
                check = guard.checker.fused_check(N, primes)
                spy.drop_top_limb(t.residues, primes,
                                  basis.special_inv_mod_chain, check=check)
                assert guard.checker.faulty_fused_rows(check) == rows
                del spy.taken[:]
                out = keyswitch.mod_down(t, basis)
        assert spy.taken[0] == ("drop_top_limb", True)
        if policy == "detect":
            assert spy.taken[1:] == [] and not _same([out], [golden])
            assert (guard.checker.checks, guard.checker.mismatches,
                    guard.detections, guard.flagged) == (4, 1, 1, 1)
            return
        inverse_rows = check.inverse_rows
        assert spy.taken[1:] == [
            ("intt", inverse_rows),
            ("ntt", len(check.row_moduli) - inverse_rows)] == [
            ("intt", 1), ("ntt", len(primes) - 1)]
        assert _same([out], [golden])
        # Two checks for the fused call, two for the phased rerun.
        assert (guard.checker.checks, guard.checker.mismatches,
                guard.detections, guard.flagged, guard.retries) == (
            6, 1, 1, 0, 0)


# -- (e) who exposes the checked slots -----------------------------------------


class TestExposure:
    @pytest.mark.parametrize("policy", CHECKING)
    def test_checked_slots_only_where_every_dispatch_may_be_skipped(
            self, policy):
        def guard(inner=CompiledBackend, **kwargs):
            return IntegrityBackend(inner(), policy, **kwargs)

        plain = guard()
        assert all(hasattr(plain, slot) for slot in SLOTS)
        assert not hasattr(plain, "keyswitch_inner_product")
        assert hasattr(plain, "check_keyswitch_accumulation")
        degraded = guard()
        degraded.degrade_level = 1
        for hidden in (guard(dram=DramModel()), guard(sram=OnChipSram()),
                       degraded, guard(NumpyBackend),
                       guard(lambda: VpuBackend(m=16))):
            assert not any(hasattr(hidden, slot) for slot in SLOTS)

    def test_slot_is_probed_on_the_wrapped_backend_at_call_time(self):
        """``benchmarks/e2e`` swaps ``inner`` for a forwarding proxy."""
        class Proxy:
            def __init__(self, inner):
                self.inner, self.name = inner, inner.name

            def __getattr__(self, attr):
                return getattr(self.inner, attr)

        guard = IntegrityBackend(NumpyBackend(), "detect")
        assert not hasattr(guard, "keyswitch_apply")
        guard.inner = Proxy(CompiledBackend())
        assert hasattr(guard, "keyswitch_apply")

    def test_fault_hook_keeps_every_backend_phased(self, rounds):
        golden = _on_numpy(lambda: {k: op() for k, op in rounds.items()})
        spy = SpyBackend()
        guard = IntegrityBackend(spy, "detect")
        counts = {}
        with use_backend(guard), use_fault_hook(FaultInjector()):
            assert all(keyswitch._fused_slot(slot) is None for slot in SLOTS)
            for kind, op in rounds.items():
                before = guard.checker.checks
                assert _same(op().parts, golden[kind].parts)
                counts[kind] = guard.checker.checks - before
        assert spy.taken == [] and counts == COUNTS


# -- (f) modulus widths ---------------------------------------------------------


class TestModulusWidths:
    @pytest.mark.parametrize("bits, limbs, taken, checks", [
        (30, 3, True, 4),
        (30, 17, False, 2),  # reduced accumulator: no spare identity
        (31, 3, False, 4),   # past the host limit: refused
        (31, 6, False, 2),   # past the host limit: refused
        (32, 3, False, 2),   # past the host limit: refused
    ])
    def test_keyswitch(self, bits, limbs, taken, checks):
        primes = tuple(find_ntt_primes(2 * N, bits, limbs + 1))
        if bits > 30:
            assert_host_refuses(primes)
            return
        x, ksk, params = _synthetic(primes, seed=bits)
        golden = _on_numpy(lambda: keyswitch.apply_keyswitch(x, ksk, params))
        spy = SpyBackend()
        guard = IntegrityBackend(spy, "detect")
        with use_backend(guard):
            assert _same(keyswitch.apply_keyswitch(x, ksk, params), golden)
        assert spy.taken == [("keyswitch_apply", 1, taken)]
        assert (guard.checker.checks, guard.checker.mismatches) == (checks, 0)

    def test_mixed_width_chain_declines(self):
        small = find_ntt_prime(2 * N, 20)
        wide = tuple(find_ntt_primes(2 * N, 30, 2))
        x, ksk, params = _synthetic((wide[0], small, wide[1]), seed=3)
        basis = get_basis((small, wide[0]), wide[1])
        t = sample_uniform_poly(N, (small,) + wide, np.random.default_rng(4))

        def both():
            return (keyswitch.apply_keyswitch(x, ksk, params)
                    + (keyswitch.mod_down(t, basis),))

        golden = _on_numpy(both)
        spy = SpyBackend()
        guard = IntegrityBackend(spy, "detect")
        with use_backend(guard):
            assert _same(both(), golden)
        assert spy.taken == [("keyswitch_apply", 1, False),
                             ("drop_top_limb", False)]
        assert (guard.checker.checks, guard.checker.mismatches) == (6, 0)

    @pytest.mark.parametrize("bits, taken", [(30, True), (31, False),
                                             (32, False)])
    def test_drop_top_limb(self, bits, taken):
        primes = tuple(find_ntt_primes(2 * N, bits, 4))
        if bits > 30:
            assert_host_refuses(primes)
            return
        basis = get_basis(primes[:-1], primes[-1])
        t = sample_uniform_poly(N, primes, np.random.default_rng(bits))
        golden = _on_numpy(lambda: keyswitch.mod_down(t, basis))
        spy = SpyBackend()
        guard = IntegrityBackend(spy, "detect")
        with use_backend(guard):
            assert _same([keyswitch.mod_down(t, basis)], [golden])
        assert spy.taken == [("drop_top_limb", taken)]
        assert (guard.checker.checks, guard.checker.mismatches) == (2, 0)
