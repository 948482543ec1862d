"""The row-fused keyswitch slots of the compiled backend.

``keyswitch_apply`` (``G`` whole keyswitches of one polynomial in one
kernel call: ``apply_keyswitch`` is ``G = 1``, hoisted rotations —
``tests/test_kernels_keyswitch_hoisted.py`` — ``G > 1``),
``drop_top_limb`` (``rescale`` / the CKKS ``mod_down``) and
``tensor_product`` (the three parts of an unrelinearized product) must
agree bit for bit with the phase-by-phase path on the same backend and
with ``NumpyBackend`` — for all three schemes' keys, at every level,
across the modulus widths the gates distinguish and on either side of
the OpenMP threshold — must decline where a gate refuses, must stay out
of the way of fault hooks, must reach a checking integrity policy only
in their checked form, and must be caught by the first-use self-check
when the kernel is wrong.  The keyswitch slot's decline and
ragged-argument checks are written once here for any ``G`` and run with
``G = 1`` here, ``G = 3`` in the hoisted file.
"""

import ctypes
import dataclasses
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.arith.primes import find_ntt_prime, find_ntt_primes
from repro.fault.injector import FaultInjector, use_fault_hook
from repro.fault.integrity import AbftChecker
from repro.fhe import keyswitch
from repro.fhe.backend import (
    IntegrityBackend,
    NumpyBackend,
    VpuBackend,
    use_backend,
)
from repro.fhe.bfv import BfvContext
from repro.fhe.bgv import BgvContext, BgvParams
from repro.fhe.ckks import Ciphertext, CkksContext
from repro.fhe.keyswitch import KeySwitchKey
from repro.fhe.params import toy_params
from repro.fhe.rlwe import tensor
from repro.fhe.rns import get_basis
from repro.fhe.sampling import sample_uniform_poly
from repro.kernels import CompiledBackend, cext
from repro.kernels import backend as kernels_backend
from repro.ntt.negacyclic import (
    HOST_MODULUS_LIMIT,
    HostModulusError,
    get_batched_ntt,
)
from repro.obs import observe
from tests.test_fhe_drop import coefficient_domain_drop

pytestmark = pytest.mark.skipif(
    CompiledBackend().provider_name is None,
    reason="no compiled provider available (needs a C compiler)")

N = 64
T = 65537
SLOTS = ("keyswitch_apply", "drop_top_limb")
#: ``G`` -> the Galois elements a ``G``-key call of the keyswitch slot
#: is tested with: one plain keyswitch, three rotations.
GALOIS = {1: None, 3: [5, 25, 125]}


class SpyBackend(CompiledBackend):
    """A compiled backend that notes every call of a fused slot and
    whether it was taken (True) or declined (False) — for the keyswitch
    slot also its ``G``, the number of key blocks."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.taken = []

    def keyswitch_apply(self, residues, primes, key_blocks, *args,
                        **kwargs):
        out = super().keyswitch_apply(residues, primes, key_blocks, *args,
                                      **kwargs)
        self.taken.append(("keyswitch_apply", len(key_blocks),
                           out is not None))
        return out

    def drop_top_limb(self, *args, **kwargs):
        out = super().drop_top_limb(*args, **kwargs)
        self.taken.append(("drop_top_limb", out is not None))
        return out

    def tensor_product(self, *args):
        out = super().tensor_product(*args)
        self.taken.append(("tensor_product", out is not None))
        return out


def _phased(x, ksk, params):
    """``apply_keyswitch`` with the fused slot left out."""
    keep = list(range(x.num_limbs)) + [params.levels]
    return keyswitch.accumulate_keyswitch(
        keyswitch.decompose_digits(x, params), ksk, keep,
        x.primes + (params.special_prime,))


def _same(ours, golden):
    return all(np.array_equal(a.residues, b.residues)
               for a, b in zip(ours, golden))


def _on_numpy(fn):
    """``fn()`` on ``NumpyBackend`` (the process default may be the
    compiled backend: the suite also runs under REPRO_BACKEND)."""
    with use_backend(NumpyBackend()):
        return fn()


def _assert_three_ways(x, ksk, params, *, taken=True):
    """Fused, phased on the same backend and numpy agree; the slot was
    taken (or declined) as expected."""
    golden = _on_numpy(lambda: keyswitch.apply_keyswitch(x, ksk, params))
    assert _same(_on_numpy(lambda: _phased(x, ksk, params)), golden)
    spy = SpyBackend()
    with use_backend(spy):
        assert _same(keyswitch.apply_keyswitch(x, ksk, params), golden)
        assert spy.taken == [("keyswitch_apply", 1, taken)]
        assert _same(_phased(x, ksk, params), golden)


def _synthetic(primes, n=N, seed=0):
    """Random ``x`` over ``primes[:-1]`` and a random key over
    ``primes`` (special prime last), with the stand-in parameter object
    the keyswitch functions read."""
    rng = np.random.default_rng(seed)
    ksk = KeySwitchKey(np.stack([  # per digit b_i, then a_i
        [sample_uniform_poly(n, primes, rng).residues for _ in range(2)]
        for _ in primes[:-1]]))
    params = SimpleNamespace(special_prime=primes[-1],
                             levels=len(primes) - 1)
    return sample_uniform_poly(n, primes[:-1], rng), ksk, params


# -- what the keyswitch slot does alike for every G ------------------------------
# Written once here and called with ``G = 1`` below and ``G = 3`` in
# ``tests/test_kernels_keyswitch_hoisted.py``.

SLOT_PRIMES = tuple(find_ntt_primes(2 * N, 30, 4))
_WIDE = tuple(find_ntt_primes(2 * N, 30, 2))
#: Chains without a compiled schedule: the lift gate refuses a 30-bit
#: source against a 20-bit target, and a 32-bit limb has no compiled NTT
#: (nor a host polynomial: ``RnsPoly`` refuses it).
UNSCHEDULED = {
    "lift-30-20-bit": (_WIDE[0], find_ntt_prime(2 * N, 20), _WIDE[1]),
    "mixed-30-32-bit": _WIDE + tuple(find_ntt_primes(2 * N, 32, 2)),
    "32-bit": tuple(find_ntt_primes(2 * N, 32, 4)),
}


def assert_host_refuses(primes):
    """Past the host limit there is no polynomial to hand a slot or the
    phased path: ``RnsPoly`` refuses the chain, naming its first wide
    prime."""
    wide = next(q for q in primes if q >= HOST_MODULUS_LIMIT)
    with pytest.raises(HostModulusError, match=str(wide)):
        sample_uniform_poly(N, primes, np.random.default_rng(0))


def assert_unscheduled_chain_declines(primes, count):
    """A ``count``-key call over ``primes`` declines before any kernel
    runs, and the phased path answers with numpy's residues — or, past
    the host limit, refuses the chain: no polynomial, and no plan for
    a raw stack either."""
    galois = GALOIS[count]
    backend = CompiledBackend()
    if max(primes) >= HOST_MODULUS_LIMIT:
        assert_host_refuses(primes)
        limbs = len(primes) - 1
        block = np.zeros((limbs, 2, limbs + 1, N), dtype=np.uint64)
        with pytest.raises(HostModulusError):
            backend.keyswitch_apply(
                np.zeros((limbs, N), dtype=np.uint64), primes,
                [block] * count, range(limbs + 1), galois)
        assert backend.kernel_invocations == 0
        return
    x, ksk, params = _synthetic(primes, seed=3)
    assert backend.keyswitch_apply(x.residues, primes, [ksk.block] * count,
                                   range(len(primes)), galois) is None
    assert backend.kernel_invocations == 0

    def switch():
        return keyswitch.hoisted_keyswitch(x, [ksk] * count, galois, params)

    golden = _on_numpy(switch)
    spy = SpyBackend()
    with use_backend(spy):
        assert all(_same(a, b) for a, b in zip(switch(), golden))
    assert spy.taken == [("keyswitch_apply", count, False)]


def assert_declines_before_allocating(monkeypatch, count):
    """With no provider a ``count``-key call is ``None`` before any plan,
    workspace or Galois table is built; returns the backend."""
    backend = CompiledBackend(provider="none")
    x, ksk, _ = _synthetic(SLOT_PRIMES)

    def refuse(*args):
        raise AssertionError("allocated before declining")

    for name in ("get_batched_ntt", "get_workspace", "get_destinations"):
        monkeypatch.setattr(kernels_backend, name, refuse)
    assert backend.keyswitch_apply(
        x.residues, SLOT_PRIMES, [ksk.block] * count, [0, 1, 2, 3],
        GALOIS[count]) is None
    assert backend.kernel_invocations == 0
    return backend


def assert_ragged_arguments_refused(count):
    """An out-of-range ``keep``, Galois elements and key blocks of
    different counts, blocks of different shapes, no blocks: each a
    ``ValueError`` naming the slot before the foreign call."""
    x, ksk, _ = _synthetic(SLOT_PRIMES)
    other = np.zeros((3, 2, 5, N), dtype=np.uint64)
    galois = GALOIS[count]
    blocks = [ksk.block] * count
    backend = CompiledBackend()
    for args in ((blocks, [0, 1, 2, 4], galois),
                 (blocks, [0, 1, 2, 3], [5] * (count + 1)),
                 (blocks + [other], [0, 1, 2, 3], galois and galois + [5]),
                 ([], [0, 1, 2, 3], galois)):
        with pytest.raises(ValueError, match="keyswitch_apply"):
            backend.keyswitch_apply(x.residues, SLOT_PRIMES, *args)
    assert backend.kernel_invocations == 0


def assert_reduced_walk_matches_phased(count):
    """n = 1024 over 17 limbs of 30-bit primes and the special prime:
    17 digit products overflow uint64, so the slot keeps its
    accumulator reduced (``ks_lazy`` 0), and ``18 * 1024`` rows are
    past the OpenMP threshold, so that walk runs threaded where threads
    are there.  A ``count``-key call is taken and matches the phased
    path on numpy."""
    n = 1024
    primes = tuple(find_ntt_primes(2 * n, 30, 18))
    assert get_batched_ntt(n, primes).ks_lazy == 0
    x, ksk, params = _synthetic(primes, n=n, seed=17)

    def switch():
        return keyswitch.hoisted_keyswitch(x, [ksk] * count, GALOIS[count],
                                           params)

    golden = _on_numpy(switch)
    spy = SpyBackend()
    with use_backend(spy):
        assert all(_same(a, b) for a, b in zip(switch(), golden))
    assert spy.taken == [("keyswitch_apply", count, True)]


SCHEMES = {
    "ckks": lambda: CkksContext(toy_params(), seed=11),
    "bgv": lambda: BgvContext(BgvParams(
        n=256, levels=3, plaintext_modulus=T, prime_bits=28), seed=12),
    "bfv": lambda: BfvContext(BgvParams(
        n=256, levels=3, plaintext_modulus=T, prime_bits=28), seed=13),
}


@pytest.fixture(scope="module", params=SCHEMES)
def ctx(request):
    context = SCHEMES[request.param]()
    context.generate_galois_keys([1])
    return context


class TestSchemesAndLevels:
    @pytest.mark.parametrize("limbs", [3, 2, 1],
                             ids=["top", "middle", "one-limb"])
    @pytest.mark.parametrize("key", ["relinearize", "rotate"])
    def test_fused_phased_numpy_agree(self, ctx, key, limbs):
        ksk = (ctx.relin_key if key == "relinearize"
               else next(iter(ctx.galois_keys.values())))
        chain = ctx.chain
        x = sample_uniform_poly(chain.n, chain.primes[:limbs],
                                np.random.default_rng(limbs))
        _assert_three_ways(x, ksk, chain)

    def test_whole_ops_match_numpy(self, ctx):
        rng = np.random.default_rng(5)
        values = (rng.uniform(-1, 1, ctx.chain.n // 2) if ctx.scheme == "ckks"
                  else rng.integers(0, T, ctx.chain.n).astype(np.int64))
        a, b = ctx.encrypt(values), ctx.encrypt(values[::-1].copy())

        def ops():
            out = [ctx.multiply(a, b)]
            if hasattr(ctx, "rotate"):
                out.append(ctx.rotate(out[0], 1))
            return out

        golden = _on_numpy(ops)
        spy = SpyBackend()
        with use_backend(spy):
            ours = ops()
        assert all(_same(x.parts, y.parts) for x, y in zip(ours, golden))
        assert ("keyswitch_apply", 1, True) in spy.taken
        # BGV's mod_down carries the plaintext modulus: phased.
        assert (("drop_top_limb", True) in spy.taken) == \
            (ctx.scheme != "bgv")


class TestTensorProduct:
    def test_matches_the_numpy_form_on_every_scheme(self, ctx):
        rng = np.random.default_rng(6)
        values = (rng.uniform(-1, 1, ctx.chain.n // 2) if ctx.scheme == "ckks"
                  else rng.integers(0, T, ctx.chain.n).astype(np.int64))
        a, b = ctx.encrypt(values), ctx.encrypt(values[::-1].copy())
        golden = _on_numpy(lambda: tensor(a, b))  # RnsPoly arithmetic
        spy = SpyBackend()
        with use_backend(spy):
            assert _same(tensor(a, b), golden)
            assert spy.taken == [("tensor_product", True)]
            with use_fault_hook(FaultInjector()):  # withheld, like the rest
                assert keyswitch._fused_slot("tensor_product") is None
                assert _same(tensor(a, b), golden)
        assert spy.taken == [("tensor_product", True)]
        assert spy.self_checks == 1

    def test_mixed_width_chain_declines(self):
        """A 32-bit limb: no plan, so the slot refuses a raw stack
        before any kernel runs, and ``RnsPoly`` refuses the chain (no
        ciphertext to tensor)."""
        primes = tuple(find_ntt_primes(2 * N, 30, 2)
                       + find_ntt_primes(2 * N, 32, 1))
        block = np.zeros((len(primes), N), dtype=np.uint64)
        backend = CompiledBackend()
        with pytest.raises(HostModulusError, match=str(primes[-1])):
            backend.tensor_product(block, block, block, block, primes)
        assert backend.kernel_invocations == 0
        assert_host_refuses(primes)

    def test_shapes_are_checked_before_the_foreign_call(self):
        primes = tuple(find_ntt_primes(2 * N, 30, 2))
        block = np.zeros((2, N), dtype=np.uint64)
        with pytest.raises(ValueError, match="tensor_product"):
            CompiledBackend().tensor_product(block, block, block[:1], block,
                                             primes)
        with pytest.raises(ValueError, match="tensor_product"):
            CompiledBackend().tensor_product(block, block, block, block,
                                             primes[:1])


class TestModulusWidths:
    """Primes just below 2^30 (Shoup butterflies) and at 2^30 and above
    (past the host limit: no polynomial, so neither the slot nor the
    phased path runs)."""

    @pytest.mark.parametrize("bits, limbs, taken", [
        (30, 3, True),
        (30, 17, True),  # 17 30-bit products overflow: reduced accumulate
        (31, 3, False),
        (32, 3, False),
        (40, 2, False),
    ])
    def test_keyswitch(self, bits, limbs, taken):
        primes = tuple(find_ntt_primes(2 * N, bits, limbs + 1))
        if bits > 30:
            assert_host_refuses(primes)
            return
        for count in range(1, limbs + 1):
            x, ksk, params = _synthetic(primes, seed=bits + count)
            _assert_three_ways(x.limbs_prefix(count), ksk, params,
                               taken=taken)

    @pytest.mark.parametrize("bits, taken", [(30, True), (31, False),
                                             (32, False)])
    def test_drop_top_limb(self, bits, taken):
        primes = tuple(find_ntt_primes(2 * N, bits, 4))
        if bits > 30:
            assert_host_refuses(primes)
            return
        basis = get_basis(primes[:-1], primes[-1])
        t = sample_uniform_poly(N, primes, np.random.default_rng(bits))

        def both():
            return (keyswitch.mod_down(t, basis),
                    keyswitch.rescale(t.limbs_prefix(3), basis))

        golden = _on_numpy(both)
        spy = SpyBackend()
        with use_backend(spy):
            assert _same(both(), golden)
        assert spy.taken == [("drop_top_limb", taken)] * 2

    def test_reduced_accumulator_threaded(self):
        assert_reduced_walk_matches_phased(1)

    def test_mixed_width_chain_declines(self):
        """No schedule for the chain: the plain keyswitch declines and
        the phased path answers with numpy's residues (``G = 3``:
        ``tests/test_kernels_keyswitch_hoisted.py``); so does
        ``drop_top_limb`` where the lift gate refuses."""
        for primes in UNSCHEDULED.values():
            assert_unscheduled_chain_declines(primes, 1)
        wide, small = _WIDE, UNSCHEDULED["lift-30-20-bit"][1]
        basis = get_basis((small, wide[0]), wide[1])
        t = sample_uniform_poly(N, (small,) + wide,
                                np.random.default_rng(4))
        golden = _on_numpy(lambda: keyswitch.mod_down(t, basis))
        spy = SpyBackend()
        with use_backend(spy):
            assert _same([keyswitch.mod_down(t, basis)], [golden])
        assert spy.taken == [("drop_top_limb", False)]


class TestDropTopLimb:
    @pytest.mark.parametrize("n", [8, 64, 8192])
    @pytest.mark.parametrize("rows", range(2, 10))
    def test_matches_the_coefficient_domain_oracle(self, rows, n):
        """The kernel subtracts in the evaluation domain (``R`` row
        NTTs); ``coefficient_domain_drop`` takes every row to the
        coefficient domain and back (``2 R - 1``).  Same residues, also
        from rows that arrive unreduced."""
        primes = tuple(find_ntt_primes(2 * n, 30, rows))
        basis = get_basis(primes[:-1], primes[-1])
        inv = np.asarray(basis.special_inv_mod_chain, dtype=np.uint64)
        x = sample_uniform_poly(n, primes,
                                np.random.default_rng(rows * n)).residues
        backend = CompiledBackend()
        golden = coefficient_domain_drop(x, primes, inv)
        q_col = np.array(primes, dtype=np.uint64)[:, None]
        for offset in (0, 1, 2):
            check = AbftChecker().fused_check(n, primes)
            out = backend.drop_top_limb(x + offset * q_col, primes, inv,
                                        check=check)
            assert np.array_equal(out, golden), offset
            assert check.sums.shape == (rows, 2, 2)  # R row NTTs
            assert AbftChecker().check_fused(check) == (True, True)

    def test_the_same_with_two_openmp_threads(self):
        """The serial top-row inverse followed by a parallel loop over
        the remaining limbs, with the threads actually there."""
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider",
             f"{__file__}::TestDropTopLimb::"
             "test_matches_the_coefficient_domain_oracle"],
            env={**os.environ, "OMP_NUM_THREADS": "2",
                 "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_plaintext_modulus_never_reaches_the_slot(self):
        params = toy_params()
        basis = get_basis(params.primes, params.special_prime)
        full = params.primes + (params.special_prime,)
        t = sample_uniform_poly(params.n, full, np.random.default_rng(1))

        def both():
            return (keyswitch.mod_down(t, basis, T),
                    keyswitch.mod_switch_exact(t.limbs_prefix(3), basis, T))

        golden = _on_numpy(both)
        spy = SpyBackend()
        with use_backend(spy):
            assert _same(both(), golden)
        assert spy.taken == []

    def test_coefficient_domain_input_runs_phased(self):
        params = toy_params()
        basis = get_basis(params.primes, params.special_prime)
        poly = sample_uniform_poly(params.n, params.primes,
                                   np.random.default_rng(2)).to_coeff()
        golden = _on_numpy(lambda: keyswitch.rescale(poly, basis))
        spy = SpyBackend()
        with use_backend(spy):
            assert _same([keyswitch.rescale(poly, basis)], [golden])
        assert spy.taken == []


_OMP_SCRIPT = """
import numpy as np
from repro.fhe import keyswitch
from repro.fhe.backend import use_backend
from repro.fhe.ckks import CkksContext
from repro.fhe.params import CkksParams
from repro.fhe.rns import get_basis
from repro.fhe.sampling import sample_uniform_poly
from repro.kernels import CompiledBackend

compiled = CompiledBackend()
for n in (256, 8192):  # (L + 1) * n below and above the 16384 threshold
    params = CkksParams(n=n, levels=2, scale_bits=26, prime_bits=28)
    with use_backend(compiled):
        ksk = CkksContext(params, seed=1).relin_key
    basis = get_basis(params.primes, params.special_prime)
    x = sample_uniform_poly(n, params.primes, np.random.default_rng(n))
    golden = keyswitch.apply_keyswitch(x, ksk, params)
    down = keyswitch.mod_down(golden[0], basis)
    before = compiled.kernel_invocations
    with use_backend(compiled):
        ours = keyswitch.apply_keyswitch(x, ksk, params)
        ours_down = keyswitch.mod_down(ours[0], basis)
    assert compiled.kernel_invocations - before >= 2
    assert all(np.array_equal(a.residues, b.residues)
               for a, b in zip(ours + (ours_down,), golden + (down,)))
print("ok")
"""


class TestOpenMpThreshold:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bit_identical_on_either_side(self, threads):
        result = subprocess.run(
            [sys.executable, "-c", _OMP_SCRIPT],
            env={**os.environ, "OMP_NUM_THREADS": threads,
                 "REPRO_BACKEND": "numpy",
                 "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"


def _ckks_rounds(ctx):
    rng = np.random.default_rng(9)
    a = ctx.encrypt(rng.uniform(-1, 1, ctx.params.slots))
    b = ctx.encrypt(rng.uniform(-1, 1, ctx.params.slots))
    three_part = Ciphertext(tensor(a, b), a.scale * b.scale)
    product = ctx.multiply(a, b, rescale_after=False)
    return {"hmult": lambda: ctx.multiply(a, b),
            "hrot": lambda: ctx.rotate(a, 1),
            "keyswitch": lambda: ctx.relinearize(three_part),
            "rescale": lambda: ctx.rescale(product)}


class TestChecksKeepThePhases:
    @pytest.fixture(scope="class")
    def rounds(self):
        context = CkksContext(toy_params(), seed=21)
        context.generate_galois_keys([1])
        return _ckks_rounds(context)

    def test_fault_hook_keeps_the_slots_out(self, rounds):
        golden = _on_numpy(
            lambda: {kind: op() for kind, op in rounds.items()})
        spy = SpyBackend()
        with use_backend(spy), use_fault_hook(FaultInjector()):
            for kind, op in rounds.items():
                assert _same(op().parts, golden[kind].parts)
        assert spy.taken == []

    def test_detect_policy_offers_checked_slots(self, rounds):
        """A checking policy offers the three row-fused slots in their
        checked form only — its own methods, never the wrapped
        backend's unchecked ones — and no ``keyswitch_inner_product``.
        The checks recorded are the phased path's, one for one."""
        spy = SpyBackend()
        guard = IntegrityBackend(spy, "detect")
        for slot in SLOTS:
            assert getattr(guard, slot).__self__ is guard
        assert not hasattr(guard, "keyswitch_inner_product")
        assert not hasattr(guard, "tensor_product")
        counts = {}
        with use_backend(guard):
            for kind, op in rounds.items():
                before = guard.checker.checks
                op()
                counts[kind] = guard.checker.checks - before
        assert counts == {"hmult": 12, "hrot": 10, "keyswitch": 8,
                          "rescale": 4}
        assert guard.checker.mismatches == 0
        assert spy.taken and all(entry[-1] for entry in spy.taken)

    @pytest.mark.parametrize("inner", [CompiledBackend, NumpyBackend,
                                       lambda: VpuBackend(m=16)])
    def test_off_policy_exposes_what_the_inner_backend_has(self, inner):
        bare = inner()
        off = IntegrityBackend(bare, "off")
        for slot in SLOTS + ("keyswitch_inner_product", "tensor_product",
                             "check_keyswitch_accumulation"):
            assert hasattr(off, slot) == hasattr(bare, slot)

    def test_off_policy_is_call_identical_to_the_bare_backend(self, rounds):
        spies = SpyBackend(), SpyBackend()
        with use_backend(spies[0]):
            bare = {kind: op() for kind, op in rounds.items()}
        with use_backend(IntegrityBackend(spies[1], "off")):
            off = {kind: op() for kind, op in rounds.items()}
        assert all(_same(off[kind].parts, bare[kind].parts) for kind in bare)
        assert spies[0].taken == spies[1].taken
        assert spies[0].kernel_invocations == spies[1].kernel_invocations


class TestSlotContract:
    def test_no_provider_declines_before_allocating(self, monkeypatch):
        backend = assert_declines_before_allocating(monkeypatch, 1)
        x, _, _ = _synthetic(SLOT_PRIMES)
        assert backend.drop_top_limb(x.residues, x.primes, [1, 1]) is None
        assert backend.kernel_invocations == 0

    def test_first_use_is_checked_once_per_shape_and_counted(self):
        backend = CompiledBackend()
        primes = SLOT_PRIMES
        x, ksk, params = _synthetic(primes)

        def call():
            assert backend.keyswitch_apply(
                x.residues, primes, [ksk.block], [0, 1, 2, 3]) is not None
            return backend.self_checks, backend.kernel_invocations

        checks, calls = call()
        assert checks >= 1  # the slot's own, plus its oracle's kernels'
        assert call() == (checks, calls + 1)
        backend.clear_caches()
        assert call()[0] > checks

    def test_out_of_range_keep_is_refused(self):
        """... and every other ragged argument of a plain keyswitch."""
        assert_ragged_arguments_refused(1)

    def test_observed_call_names_the_phases(self):
        primes = SLOT_PRIMES
        x, ksk, params = _synthetic(primes)
        with use_backend(CompiledBackend()):
            keyswitch.apply_keyswitch(x, ksk, params)  # first-use check
            with observe() as session:
                keyswitch.apply_keyswitch(x, ksk, params)
        kernel, = [s for s in session.tracer.spans if s.parent is None]
        assert kernel.name == "compiled.keyswitch.apply"
        phases = kernel.children
        assert [s.name for s in phases] == [
            "keyswitch.decompose", "keyswitch.ntt",
            "keyswitch.inner_product"]
        wall = kernel.end_ns - kernel.start_ns
        assert 0 < sum(s.end_ns - s.start_ns for s in phases) <= wall
        assert session.metrics.counter(
            "backend.kernels.keyswitch_apply") == 1


class TestKeyBlock:
    def test_the_key_is_one_contiguous_block(self):
        ksk = CkksContext(toy_params(), seed=3).relin_key
        levels, n = toy_params().levels, toy_params().n
        assert [f.name for f in dataclasses.fields(ksk)] == ["block"]
        assert ksk.block.shape == (levels, 2, levels + 1, n)
        assert ksk.block.dtype == np.uint64 and ksk.block.flags.c_contiguous
        assert ksk.num_digits == levels

    def test_hoisted_accumulate_reads_the_block_in_place(self):
        seen = []

        class Spy(CompiledBackend):
            keyswitch_apply = None  # withheld: the phased accumulate

            def keyswitch_inner_product(self, digits, b_stack, a_stack,
                                        primes):
                seen.append((b_stack, a_stack))
                return super().keyswitch_inner_product(
                    digits, b_stack, a_stack, primes)

        ctx = CkksContext(toy_params(), seed=4)
        ctx.generate_galois_keys([1, 2])
        ct = ctx.encrypt(np.linspace(-1, 1, ctx.params.slots))
        lower = ctx.mod_reduce(ct, 1)

        def hoisted():
            return [out for c in (ct, lower)
                    for out in ctx.rotate_hoisted(c, [1, 2])]

        golden = _on_numpy(hoisted)
        with use_backend(Spy()):
            ours = hoisted()
        assert all(_same(mine.parts, want.parts)
                   for mine, want in zip(ours, golden))
        keys = list(ctx.galois_keys.values())
        top, below = seen[:2], seen[2:]
        assert len(top) == len(below) == 2
        assert all(np.shares_memory(stack, key.block)
                   for stacks, key in zip(top, keys) for stack in stacks)
        assert not any(np.shares_memory(stack, key.block)
                       for stacks, key in zip(below, keys)
                       for stack in stacks)


def _mutant_provider(tmp_path, old, new):
    """The C provider built from ``kernels.c`` with ``old`` -> ``new``."""
    source = cext._SOURCE.read_text()
    assert source.count(old) == 1
    path = tmp_path / "kernels.c"
    path.write_text(source.replace(old, new))
    lib = cext._build(path, tmp_path)
    assert lib is not None
    return cext.CExtProvider(ctypes.CDLL(str(lib)))


def _with_boundary_coefficients(primes, seed=0):
    """Evaluation-domain rows whose coefficient rows hold ``q // 2``
    and ``q // 2 + 1``: the two sides of the centered lift."""
    rng = np.random.default_rng(seed)
    coeff = np.stack([rng.integers(0, q, N, dtype=np.uint64)
                      for q in primes])
    for row, q in zip(coeff, primes):
        row[:2] = q // 2, q // 2 + 1
    return NumpyBackend().forward_ntt_batch(coeff, primes)


class TestSelfCheckCatchesAWrongKernel:
    PRIMES = tuple(find_ntt_primes(2 * N, 30, 5))

    @pytest.mark.parametrize("old, new", [
        ("c[k] > half ? offset : 0", "c[k] >= half ? offset : 0"),
        ("(2 * i * K + keep[j]) * n", "(2 * i * K + j) * n"),
        ("if (i != j) {", "if (i != j && j) {"),
    ], ids=["lift-with->=", "key-rows-not-through-keep",
            "diagonal-reuse-off-the-diagonal"])
    def test_keyswitch_apply(self, tmp_path, old, new):
        backend = CompiledBackend(
            provider=_mutant_provider(tmp_path, old, new))
        _, ksk, _ = _synthetic(self.PRIMES)
        # One level down a 4-limb chain, so keep is not the identity.
        primes = self.PRIMES[:3] + self.PRIMES[4:]
        x = _with_boundary_coefficients(primes[:-1])
        with pytest.raises(RuntimeError, match="self-check failed"):
            backend.keyswitch_apply(x, primes, [ksk.block], [0, 1, 2, 4])

    def test_the_table_path_is_checked_apart_from_the_plain_one(
            self, tmp_path):
        """A kernel that reads every digit row straight, whatever the
        Galois table: its plain keyswitches are right and pass, and the
        first rotation at the same shape is checked all the same."""
        backend = CompiledBackend(provider=_mutant_provider(
            tmp_path, "digit, tables ? tables[g] : 0,", "digit, 0,"))
        primes = self.PRIMES[:4]
        x, ksk, _ = _synthetic(primes)
        keep = [0, 1, 2, 3]
        assert backend.keyswitch_apply(x.residues, primes, [ksk.block],
                                       keep) is not None
        with pytest.raises(RuntimeError, match="self-check failed"):
            backend.keyswitch_apply(x.residues, primes, [ksk.block], keep,
                                    [5])

    def test_the_hoisted_walk_is_checked_apart_from_one_rotation(
            self, tmp_path):
        """A kernel that reads every rotation through the first one's
        Galois table: a single rotation is right and passes, and the
        first hoisted call at the same shape is checked all the same."""
        backend = CompiledBackend(provider=_mutant_provider(
            tmp_path, "digit, tables ? tables[g] : 0,",
            "digit, tables ? tables[0] : 0,"))
        primes = self.PRIMES[:4]
        x, ksk, _ = _synthetic(primes)
        keep = [0, 1, 2, 3]
        assert backend.keyswitch_apply(x.residues, primes, [ksk.block], keep,
                                       [5]) is not None
        with pytest.raises(RuntimeError, match="self-check failed"):
            backend.keyswitch_apply(x.residues, primes, [ksk.block] * 2,
                                    keep, [5, 25])

    def test_drop_top_limb(self, tmp_path):
        backend = CompiledBackend(provider=_mutant_provider(
            tmp_path, "c[k] > half ? offset : 0",
            "c[k] >= half ? offset : 0"))
        x = _with_boundary_coefficients(self.PRIMES)
        with pytest.raises(RuntimeError, match="self-check failed"):
            backend.drop_top_limb(x, self.PRIMES, [1, 1, 1, 1])

    def test_the_unmutated_kernel_passes_on_the_same_inputs(self):
        backend = CompiledBackend()
        _, ksk, _ = _synthetic(self.PRIMES)
        primes = self.PRIMES[:3] + self.PRIMES[4:]
        x = _with_boundary_coefficients(self.PRIMES)
        assert backend.keyswitch_apply(
            x[:3], primes, [ksk.block], [0, 1, 2, 4]) is not None
        assert backend.drop_top_limb(
            x, self.PRIMES, [1, 1, 1, 1]) is not None
        assert backend.self_checks >= 2
