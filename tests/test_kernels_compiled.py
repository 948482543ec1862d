"""The compiled fused-kernel backend (:mod:`repro.kernels`).

Three-way **bit-equality** is the contract under test: for every
kernel (forward/inverse NTT batch, automorphism batch, the fused
keyswitch inner product) the compiled backend must agree bit for bit
with both the numpy reference and the behavioral VPU below the host
limit (``2**30``), and refuse past it where the VPU still runs — and
with no compiled provider at all it must degrade to the inherited numpy
path, still bit-identically.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.bounds import keyswitch_lazy_accumulate_ok
from repro.arith.primes import find_ntt_prime, find_ntt_primes, is_prime
from repro.fhe.backend import (
    IntegrityBackend,
    NumpyBackend,
    VpuBackend,
    backend_from_env,
    clear_caches,
    observed,
    use_backend,
)
from repro.fhe.keyswitch import KeySwitchKey, accumulate_keyswitch
from repro.fhe.sampling import sample_uniform_poly
from repro.kernels import CompiledBackend, plan_cache, resolve_provider
from repro.ntt.negacyclic import (
    HOST_MODULUS_LIMIT,
    HostModulusError,
    get_batched_ntt,
)
from repro.obs import Observer, install_obs_hook
from tests.test_ntt_boundary_moduli import reference_forward

N = 64
LOG_N = 6
LIMBS = 3


def _prime_just_above(order: int, floor: int) -> int:
    q = floor + 1 + (-floor % order)
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


@pytest.fixture(scope="module")
def compiled():
    backend = CompiledBackend()
    if backend.provider_name is None:
        pytest.skip("no compiled provider available (needs a C compiler)")
    return backend


def _rows(primes, seed=7):
    rng = np.random.default_rng(seed)
    return rng.integers(0, min(primes), size=(len(primes), N),
                        dtype=np.uint64)


def assert_refused_on_the_host(compiled, x, primes):
    """Past the host limit no compiled NTT is proven and both transforms
    raise ``HostModulusError`` naming the first wide prime, before a plan
    is built or a fallback counted, as numpy does; the VPU model equals
    the reference."""
    wide = next(q for q in primes if q >= HOST_MODULUS_LIMIT)
    counts = (compiled.kernel_invocations, compiled.fallbacks,
              len(plan_cache()))
    for backend in (compiled, NumpyBackend()):
        for kernel in (backend.forward_ntt_batch, backend.inverse_ntt_batch):
            with pytest.raises(HostModulusError, match=str(wide)):
                kernel(x, primes)
    assert (compiled.kernel_invocations, compiled.fallbacks,
            len(plan_cache())) == counts
    with pytest.raises(HostModulusError, match=str(wide)):
        get_batched_ntt(N, primes)  # no plan: none is proven
    vpu = VpuBackend(m=16)
    evals = vpu.forward_ntt_batch(x, primes)
    for row, value, q in zip(x, evals, primes):
        assert np.array_equal(value, reference_forward(row, q))
    assert np.array_equal(vpu.inverse_ntt_batch(evals, primes), x)


class TestThreeWayBitEquality:
    """compiled == numpy == VPU, per boundary-modulus regime."""

    @pytest.mark.parametrize("regime", ["below_2^30", "above_2^30",
                                        "below_2^31"])
    def test_forward_inverse_ntt(self, compiled, boundary_primes, regime):
        """Below 2^30 the compiled kernels run; from 2^30 up no compiled
        NTT is proven and the batch is refused, while the VPU model
        still runs it."""
        q = boundary_primes[regime]
        primes = tuple(
            find_ntt_primes(2 * N, q.bit_length(), LIMBS)
            if regime != "above_2^30" else [q] * 1)
        x = _rows(primes)
        if regime != "below_2^30":
            assert_refused_on_the_host(compiled, x, primes)
            return
        fwd = {}
        inv = {}
        counts = (compiled.kernel_invocations, compiled.fallbacks)
        for backend in (compiled, NumpyBackend(), VpuBackend(m=16)):
            with use_backend(backend):
                fwd[backend.name] = backend.forward_ntt_batch(x, primes)
                inv[backend.name] = backend.inverse_ntt_batch(
                    fwd[backend.name], primes)
        grew = (compiled.kernel_invocations - counts[0],
                compiled.fallbacks - counts[1])
        assert grew == (2, 0)
        assert np.array_equal(fwd["compiled"], fwd["numpy"])
        assert np.array_equal(fwd["compiled"], fwd["vpu"])
        assert np.array_equal(inv["compiled"], inv["numpy"])
        assert np.array_equal(inv["compiled"], x)

    def test_lazy_shoup_inverse_schedule(self, compiled):
        """``inv_mode == 1`` — Shoup butterflies hold, numpy's clamp-free
        inverse does not — needs n = 2^16 with a prime just under 2^30;
        every shape the benches and the other tests use gets mode 2 on
        numpy.  C runs the lazy Shoup inverse at every shape."""
        n = 1 << 16
        primes = (find_ntt_prime(2 * n, 30),)
        plan = get_batched_ntt(n, primes)
        assert plan.inv_mode == 1
        x = np.random.default_rng(16).integers(
            0, primes[0], size=(1, n), dtype=np.uint64)
        coeff = compiled.inverse_ntt_batch(x, primes)
        assert np.array_equal(coeff,
                              NumpyBackend().inverse_ntt_batch(x, primes))
        assert np.array_equal(compiled.forward_ntt_batch(coeff, primes), x)

    @pytest.mark.parametrize("kernel", ["forward_ntt_batch",
                                        "inverse_ntt_batch"])
    def test_row_count_must_match_the_primes(self, kernel):
        """C walks ``x.shape[0]`` rows through as many plan rows: a
        matrix with more rows than primes never reaches the binding."""
        class _Unreachable:
            name = "unreachable"

            def fwd_ntt(self, *args):
                raise AssertionError("reached the binding")

            inv_ntt = fwd_ntt

        backend = CompiledBackend(provider=_Unreachable())
        primes = tuple(find_ntt_primes(2 * N, 29, 2))
        with pytest.raises(ValueError, match="do not match 2 primes"):
            getattr(backend, kernel)(np.zeros((3, N), dtype=np.uint64),
                                     primes)

    def test_automorphism_batch(self, compiled, boundary_primes):
        primes = tuple(find_ntt_primes(2 * N, 29, LIMBS))
        x = compiled.forward_ntt_batch(_rows(primes), primes)
        for k in (5, 2 * N - 1):
            a_c = compiled.automorphism_eval_batch(x, k, primes)
            a_n = NumpyBackend().automorphism_eval_batch(x, k, primes)
            a_v = VpuBackend(m=16).automorphism_eval_batch(x, k, primes)
            assert np.array_equal(a_c, a_n)
            assert np.array_equal(a_c, a_v)

    def test_wide_modulus_is_refused(self, compiled):
        # q >= 2**32: refused like every modulus past the host limit.
        q = _prime_just_above(2 * N, 1 << 32)
        assert_refused_on_the_host(compiled, _rows((q,)), (q,))

    def test_full_keyswitch_three_backends(self, compiled):
        from repro.fhe.ckks import CkksContext
        from repro.fhe.keyswitch import apply_keyswitch
        from repro.fhe.params import toy_params

        ctx = CkksContext(toy_params(), seed=33)
        x = ctx.encrypt(np.random.default_rng(3).uniform(
            -1, 1, ctx.params.slots)).parts[1]
        results = {}
        for backend in (NumpyBackend(), compiled, VpuBackend(m=16)):
            with use_backend(backend):
                t0, t1 = apply_keyswitch(x, ctx.relin_key, ctx.params)
            results[backend.name] = (t0.residues, t1.residues)
        for name in ("compiled", "vpu"):
            assert np.array_equal(results[name][0], results["numpy"][0])
            assert np.array_equal(results[name][1], results["numpy"][1])


class TestKeyswitchInnerProduct:
    def test_matches_reference_lazy_and_reduced(self, compiled):
        rng = np.random.default_rng(11)
        # The lazy gate holds for 5 digits at 29 bits, refuses 17 at 30.
        for bits, digits in ((29, 5), (30, 17)):
            primes = tuple(find_ntt_primes(2 * N, bits, LIMBS))
            q_arr = np.array(primes, dtype=np.uint64)
            shape = (digits, LIMBS, N)
            d = rng.integers(0, min(primes), size=shape, dtype=np.uint64)
            b = rng.integers(0, min(primes), size=shape, dtype=np.uint64)
            a = rng.integers(0, min(primes), size=shape, dtype=np.uint64)
            acc0, acc1 = compiled.keyswitch_inner_product(d, b, a, primes)
            ref0 = (d * b % q_arr[None, :, None]).sum(
                axis=0, dtype=np.uint64) % q_arr[:, None]
            ref1 = (d * a % q_arr[None, :, None]).sum(
                axis=0, dtype=np.uint64) % q_arr[:, None]
            assert np.array_equal(acc0, ref0)
            assert np.array_equal(acc1, ref1)

    def test_refuses_wide_single_products(self, compiled):
        q = _prime_just_above(2 * N, 1 << 33)
        z = np.zeros((1, 1, N), dtype=np.uint64)
        with pytest.raises(HostModulusError, match=str(q)):
            compiled.keyswitch_inner_product(z, z, z, (q,))

    def test_schedule_is_picked_from_the_gate_without_being_told(
            self, compiled):
        """The lazy accumulator for five digits of 29-bit primes, the
        per-step reduced one for 17 of 30-bit — the binding's own choice,
        visible only as the last argument of the foreign call."""
        impl = compiled._impl
        real, seen = impl._ks, []
        impl._ks = lambda *args: (seen.append(args[-1]), real(*args))
        try:
            for bits, digits in ((29, 5), (30, 17)):
                primes = tuple(find_ntt_primes(2 * N, bits, LIMBS))
                z = np.zeros((digits, LIMBS, N), dtype=np.uint64)
                assert keyswitch_lazy_accumulate_ok(digits, max(primes)) == \
                    (bits == 29)
                compiled.keyswitch_inner_product(z, z, z, primes)
        finally:
            impl._ks = real
        assert seen == [1, 0]

    def test_providerless_fallback_matches(self):
        """No provider: the slot declines before touching its arguments
        and ``accumulate_keyswitch`` runs its own lazy loop."""
        backend = CompiledBackend(provider="none")
        assert backend.provider_name is None
        primes = tuple(find_ntt_primes(2 * N, 29, LIMBS))
        assert backend.keyswitch_inner_product(
            None, None, None, primes) is None
        assert backend.fallbacks == backend.kernel_invocations == 0
        rng = np.random.default_rng(5)
        digits = [sample_uniform_poly(N, primes, rng) for _ in range(3)]
        ksk = KeySwitchKey(np.stack([
            [sample_uniform_poly(N, primes, rng).residues for _ in range(2)]
            for _ in digits]))
        keep = list(range(LIMBS))
        with use_backend(NumpyBackend()):
            golden = accumulate_keyswitch(digits, ksk, keep, primes)
        with use_backend(backend):
            ours = accumulate_keyswitch(digits, ksk, keep, primes)
        for mine, want in zip(ours, golden):
            assert np.array_equal(mine.residues, want.residues)


class TestProviderlessFallback:
    """provider='none' must reproduce the numpy path bit for bit."""

    def test_ntt_and_automorphism(self):
        backend = CompiledBackend(provider="none")
        primes = tuple(find_ntt_primes(2 * N, 29, LIMBS))
        x = _rows(primes)
        reference = NumpyBackend()
        assert np.array_equal(backend.forward_ntt_batch(x, primes),
                              reference.forward_ntt_batch(x, primes))
        f = reference.forward_ntt_batch(x, primes)
        assert np.array_equal(backend.inverse_ntt_batch(f, primes),
                              reference.inverse_ntt_batch(f, primes))
        assert np.array_equal(
            backend.automorphism_eval_batch(f, 5, primes),
            reference.automorphism_eval_batch(f, 5, primes))
        assert backend.fallbacks >= 3
        assert backend.kernel_invocations == 0

    def test_unknown_provider_name_rejected(self):
        with pytest.raises(ValueError, match="provider 'bogus'"):
            CompiledBackend(provider="bogus")
        with pytest.raises(ValueError, match="provider 'numba'"):
            resolve_provider("numba")


class TestSelection:
    def test_backend_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        assert backend_from_env().name == "compiled"
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert backend_from_env().name == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", "vpu")
        assert backend_from_env().name == "vpu"
        monkeypatch.delenv("REPRO_BACKEND")
        assert backend_from_env().name == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            backend_from_env()

    def test_import_time_bogus_env_warns_not_raises(self):
        code = ("import warnings\n"
                "with warnings.catch_warnings(record=True) as w:\n"
                "    warnings.simplefilter('always')\n"
                "    from repro.fhe.backend import get_backend\n"
                "    assert get_backend().name == 'numpy'\n"
                "    assert any('REPRO_BACKEND' in str(x.message)"
                " for x in w)\n")
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "REPRO_BACKEND": "bogus",
                 "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("first, second", [
        ("repro.kernels", "repro.fhe.backend"),
        ("repro.fhe.backend", "repro.kernels"),
    ])
    def test_either_import_order_under_the_compiled_default(self, first,
                                                            second):
        """Regression: ``kernels.backend`` imports ``repro.fhe.backend``,
        which used to construct the ``REPRO_BACKEND`` default — importing
        ``repro.kernels`` back — while it was itself being imported."""
        code = (f"import {first}\nimport {second}\n"
                "from repro.fhe.backend import get_backend\n"
                "assert get_backend().name == 'compiled'\n")
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "REPRO_BACKEND": "compiled",
                 "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_integrity_backend_wraps_compiled(self, compiled):
        wrapped = IntegrityBackend(inner=compiled)
        primes = tuple(find_ntt_primes(2 * N, 29, LIMBS))
        x = _rows(primes)
        out = wrapped.forward_ntt_batch(x, primes)
        assert np.array_equal(out, NumpyBackend().forward_ntt_batch(x, primes))


class TestCachesAndObs:
    def test_clear_caches_resets_plan_cache(self, compiled):
        primes = tuple(find_ntt_primes(2 * N, 29, LIMBS))
        compiled.forward_ntt_batch(_rows(primes), primes)
        compiled.forward_ntt_batch(_rows(primes, seed=8), primes)
        assert compiled.plan_cache_hits >= 1
        assert compiled.plan_cache_misses >= 1
        clear_caches()  # module-level clear reaches the kernels package
        assert compiled.plan_cache_hits == 0
        assert compiled.plan_cache_misses == 0
        assert len(plan_cache()) == 0

    def test_plan_cache_gauges_published(self, compiled):
        compiled.clear_caches()
        primes = tuple(find_ntt_primes(2 * N, 29, LIMBS))
        observer = Observer()
        previous = install_obs_hook(observer)
        try:
            observed(compiled).forward_ntt_batch(_rows(primes), primes)
            observed(compiled).forward_ntt_batch(_rows(primes, seed=9),
                                                 primes)
        finally:
            install_obs_hook(previous)
        snapshot = observer.metrics.snapshot()
        gauges = snapshot["gauges"]
        assert gauges["backend.compiled_plan_cache.misses"] == 1
        assert gauges["backend.compiled_plan_cache.hits"] == 1
        assert gauges["backend.compiled_plan_cache.size"] == 1
        assert snapshot["counters"]["backend.kernels.ntt"] == 2

    def test_obs_off_is_exact_noop(self, compiled):
        # No hook installed: dispatch must not touch any registry.
        primes = tuple(find_ntt_primes(2 * N, 29, LIMBS))
        out = compiled.forward_ntt_batch(_rows(primes), primes)
        assert out is not None


class TestSelfCheck:
    def test_broken_provider_raises(self):
        class _Broken:
            name = "broken"

            def fwd_ntt(self, plan, x, out, work):
                out[:] = 0

        backend = CompiledBackend(provider=_Broken())
        primes = tuple(find_ntt_primes(2 * N, 29, LIMBS))
        with pytest.raises(RuntimeError, match="self-check failed"):
            backend.forward_ntt_batch(_rows(primes), primes)

    def test_self_check_runs_once_per_shape(self, compiled):
        compiled.clear_caches()
        primes = tuple(find_ntt_primes(2 * N, 29, LIMBS))
        before = compiled.self_checks
        compiled.forward_ntt_batch(_rows(primes), primes)
        compiled.forward_ntt_batch(_rows(primes, seed=10), primes)
        assert compiled.self_checks == before + 1
