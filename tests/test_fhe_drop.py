"""The top-limb drop on every executor: CKKS ``rescale`` and
``mod_down``, BGV's exact modulus switch, BFV's ``mod_down``.

``keyswitch._divide_by_top_limb`` subtracts in the evaluation domain:
the top row's inverse, one forward batch of the ``R - 1`` lifted rows —
``R`` row NTTs, the compiled ``drop_top_limb`` slot's schedule.  Pinned
here: those row counts, and bit-identity with an independent oracle that
takes every row to the coefficient domain and subtracts there in exact
integers (``2 R - 1`` row NTTs) — on numpy, on the compiled slot, on the
compiled batch kernels phase by phase and on the VPU model, for every
scheme's drop, for coefficient-domain inputs and for chains whose lift
has no conditional-add fast path.  A 32-bit chain and a plaintext
modulus of ``2**33`` are past the host limit: every executor refuses
them with ``HostModulusError``.
"""

import numpy as np
import pytest

from repro.analysis.bounds import centered_lift_lazy_ok
from repro.arith.primes import find_ntt_prime, find_ntt_primes
from repro.fault.integrity import AbftChecker
from repro.fault.injector import FaultInjector, use_fault_hook
from repro.fhe import keyswitch
from repro.fhe.backend import NumpyBackend, VpuBackend, use_backend
from repro.fhe.bfv import BfvContext
from repro.fhe.bgv import BgvContext, BgvParams
from repro.fhe.ckks import CkksContext
from repro.fhe.params import CkksParams
from repro.fhe.program import OP_TABLE
from repro.fhe.rns import get_basis
from repro.fhe.sampling import sample_uniform_poly
from repro.kernels import CompiledBackend
from repro.ntt.negacyclic import HostModulusError

N = 64
T = 65537


def coefficient_domain_drop(x, primes, inv, plaintext_modulus=None,
                            is_eval=True):
    """``(x - delta) / q_top`` by another algorithm: every row to the
    coefficient domain on ``NumpyBackend``, ``delta`` (with BGV's
    ``t``-correction when ``plaintext_modulus`` is set) and the
    subtraction in exact integers there, then every remaining row
    forward — ``2 R - 1`` row NTTs for an evaluation-domain input."""
    numpy = NumpyBackend()
    coeff = (numpy.inverse_ntt_batch(x, primes) if is_eval
             else np.asarray(x)).astype(object)
    q_top = primes[-1]
    delta = np.where(coeff[-1] > q_top // 2, coeff[-1] - q_top, coeff[-1])
    if plaintext_modulus is not None:
        t = plaintext_modulus
        correction = -delta * pow(q_top, -1, t) % t
        delta = delta + q_top * np.where(correction > t // 2,
                                         correction - t, correction)
    scaled = np.array([(coeff[j] - delta) * int(inv[j]) % q
                       for j, q in enumerate(primes[:-1])], dtype=np.uint64)
    return numpy.forward_ntt_batch(scaled, primes[:-1])


class RowCounter(NumpyBackend):
    """``NumpyBackend`` counting the rows of every batch NTT."""

    def __init__(self):
        super().__init__()
        self.rows = {"intt": 0, "ntt": 0}

    def forward_ntt_batch(self, residues, primes):
        self.rows["ntt"] += len(primes)
        return super().forward_ntt_batch(residues, primes)

    def inverse_ntt_batch(self, values, primes):
        self.rows["intt"] += len(primes)
        return super().inverse_ntt_batch(values, primes)


# -- row counts ----------------------------------------------------------------


def test_phased_hmult_reads_the_compiled_row_count():
    """At ``L = 8``: the keyswitch's 8 inverse and 8 * 9 - 8 = 64
    forward digit rows, two ModDowns of ``R = 9`` and two rescales of
    ``R = 8`` — 8 + 64 + 2 * 9 + 2 * 8 = 106 rows, what the compiled
    slots transform (the two drops in 2 + 2 inverse, 16 + 14 forward)."""
    with use_backend(NumpyBackend()):
        ctx = CkksContext(CkksParams(n=N, levels=8, scale_bits=24,
                                     prime_bits=28), seed=3)
        rng = np.random.default_rng(3)
        a, b = (ctx.encrypt(rng.uniform(-1, 1, ctx.params.slots))
                for _ in range(2))
    counter = RowCounter()
    with use_backend(counter):
        ctx.multiply(a, b)
    assert counter.rows == {"intt": 8 + 2 + 2, "ntt": 64 + 16 + 14}
    # The rows the compiled slots' integrity sums cover, one per row NTT.
    checker, chain = AbftChecker(), ctx.params.primes
    full = chain + (ctx.params.special_prime,)
    slot_rows = [len(checker.fused_check(N, primes, keys).row_moduli)
                 for primes, keys in ((full, [ctx.relin_key.block]),
                                      (full, None), (chain, None))]
    assert slot_rows == [72, 9, 8]
    assert sum(counter.rows.values()) == 72 + 2 * 9 + 2 * 8 == 106


@pytest.mark.parametrize("limbs", range(2, 10))
def test_a_drop_of_r_limbs_reads_r_rows(limbs):
    """Rescale, BGV's modulus switch and ModDown (with and without
    ``t``) of ``R`` limbs: the top row's inverse, ``R - 1`` forward."""
    primes = tuple(find_ntt_primes(2 * N, 28, limbs + 1))
    basis = get_basis(primes[:-1], primes[-1])
    rng = np.random.default_rng(limbs)
    x = sample_uniform_poly(N, primes[:limbs], rng)
    t = sample_uniform_poly(N, primes[:limbs - 1] + primes[-1:], rng)
    for drop in (lambda: keyswitch.rescale(x, basis),
                 lambda: keyswitch.mod_switch_exact(x, basis, T),
                 lambda: keyswitch.mod_down(t, basis),
                 lambda: keyswitch.mod_down(t, basis, T)):
        counter = RowCounter()
        with use_backend(counter):
            assert drop().num_limbs == limbs - 1
        assert counter.rows == {"intt": 1, "ntt": limbs - 1}
    # A coefficient-domain input needs no inverse row at all.
    counter = RowCounter()
    coeff = x.to_coeff()
    with use_backend(counter):
        keyswitch.rescale(coeff, basis)
    assert counter.rows == {"intt": 0, "ntt": limbs - 1}


# -- bit-identity with the coefficient-domain oracle ---------------------------


def _recorded(ops):
    """``ops()`` on ``NumpyBackend``; the arguments of every drop it
    made, as ``(poly, inv_table, plaintext_modulus)``."""
    calls = []
    original = keyswitch._divide_by_top_limb

    def record(poly, inv_table, plaintext_modulus=None):
        calls.append((poly, inv_table, plaintext_modulus))
        return original(poly, inv_table, plaintext_modulus)

    with pytest.MonkeyPatch.context() as patch, use_backend(NumpyBackend()):
        patch.setattr(keyswitch, "_divide_by_top_limb", record)
        ops()
    return calls


def _ckks_cases():
    ctx = CkksContext(CkksParams(n=N, levels=3, scale_bits=24,
                                 prime_bits=28), seed=5)
    rng = np.random.default_rng(5)
    a, b = (ctx.encrypt(rng.uniform(-1, 1, ctx.params.slots))
            for _ in range(2))
    product = ctx.multiply(a, b, rescale_after=False)
    intt = OP_TABLE["intt"].run["ckks"]
    return {
        # Two ModDowns, then two rescales.
        "ckks-hmult": lambda: ctx.multiply(a, b),
        "ckks-coefficient-domain": lambda: ctx.rescale(
            intt(ctx, None, product)),
    }


def _exact_cases():
    params = BgvParams(n=N, levels=3, prime_bits=28, plaintext_modulus=T)
    bgv, bfv = BgvContext(params, seed=6), BfvContext(params, seed=6)
    rng = np.random.default_rng(6)
    values = rng.integers(0, T, N).astype(np.int64)
    x, y = bgv.encrypt(values), bgv.encrypt(values[::-1].copy())
    u, v = bfv.encrypt(values), bfv.encrypt(values[::-1].copy())
    # BGV: two ModDowns and two exact modulus switches, all with t.
    return {"bgv-hmult": lambda: bgv.multiply(x, y),
            "bfv-hmult": lambda: bfv.multiply(u, v)}


def _synthetic_cases():
    """Drops no context here makes: chains whose lift has no
    conditional-add fast path."""
    wide = tuple(find_ntt_primes(2 * N, 30, 2))
    small = find_ntt_prime(2 * N, 20)
    lift = (wide[0], small, wide[1])
    assert not centered_lift_lazy_ok(lift[-1], min(lift[:-1]))
    cases = {}
    for name, primes, t in (
            ("lift-30-20-bit", lift, None),
            ("lift-30-20-bit-bgv", lift, T)):
        basis = get_basis(primes[:-1], primes[-1])
        x = sample_uniform_poly(N, primes, np.random.default_rng(len(name)))
        cases[name] = (lambda x=x, basis=basis, t=t:
                       keyswitch.mod_down(x, basis, t))
    return cases


def _refused_cases():
    """Drops past the host limit, as ``(modulus, op)``: a 32-bit chain
    builds no polynomial to drop, and BGV's ``t``-correction refuses
    ``t = 2^33``."""
    wide = tuple(find_ntt_primes(2 * N, 32, 4))
    primes = tuple(find_ntt_primes(2 * N, 28, 4))
    x = sample_uniform_poly(N, primes[:-1], np.random.default_rng(7))
    t = find_ntt_prime(2 * N, 33)
    return {
        "32-bit": (wide[0], lambda: keyswitch.mod_down(
            sample_uniform_poly(N, wide, np.random.default_rng(6)),
            get_basis(wide[:-1], wide[-1]))),
        "bgv-t-2^33": (t, lambda: keyswitch.mod_switch_exact(
            x, get_basis(primes[:-1], primes[-1]), t)),
    }


@pytest.fixture(scope="module")
def drops():
    with use_backend(NumpyBackend()):
        ops = {**_ckks_cases(), **_exact_cases(), **_synthetic_cases()}
    return {name: _recorded(op) for name, op in ops.items()}


REFUSED = _refused_cases()
CASES = ("ckks-hmult", "ckks-coefficient-domain", "bgv-hmult", "bfv-hmult",
         "bgv-t-2^33", "lift-30-20-bit", "lift-30-20-bit-bgv", "32-bit")


def test_the_cases_reach_every_branch(drops):
    seen = {name: [(p.is_eval, p.num_limbs, t) for p, _, t in calls]
            for name, calls in drops.items()}
    assert sorted(seen) == sorted(set(CASES) - set(REFUSED))
    assert seen["ckks-hmult"] == [(True, 4, None)] * 2 + [(True, 3, None)] * 2
    assert seen["ckks-coefficient-domain"] == [(False, 3, None)] * 2
    assert seen["bgv-hmult"] == [(True, 4, T)] * 2 + [(True, 3, T)] * 2
    assert seen["bfv-hmult"] == [(True, 4, None)] * 2


BACKENDS = {
    "numpy": NumpyBackend,
    "compiled": CompiledBackend,
    # The compiled batch kernels phase by phase: a dormant fault hook
    # keeps the slot out.
    "compiled-phased": CompiledBackend,
    "vpu": lambda: VpuBackend(m=16),
}


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize("case", CASES)
def test_matches_the_coefficient_domain_oracle(drops, case, backend):
    executor = BACKENDS[backend]()
    hook = FaultInjector() if backend == "compiled-phased" else None
    if case in REFUSED:
        modulus, op = REFUSED[case]
        with use_backend(executor), use_fault_hook(hook), pytest.raises(
                HostModulusError, match=str(modulus)):
            op()
        return
    for poly, inv, t in drops[case]:
        golden = coefficient_domain_drop(poly.residues, poly.primes, inv, t,
                                         poly.is_eval)
        with use_backend(executor), use_fault_hook(hook):
            out = keyswitch._divide_by_top_limb(poly, inv, t)
        assert out.is_eval and out.primes == poly.primes[:-1]
        assert np.array_equal(out.residues, golden), (case, t)
