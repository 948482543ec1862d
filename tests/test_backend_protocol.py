"""The ``KernelBackend`` protocol: every backend, bare and observed.

One conformance check over all implementations — three batch kernels,
nothing single-row, L = 1 and L > 1 batches bit-identical to the naive
reference transform below 2^30, and past that host limit a refusal on
every host backend while the VPU model's 64-bit words still run — and
the observing wrapper's contract: transparent (same bits, same VPU cycles,
same attributes), and unable to leave a span open.
"""

import numpy as np
import pytest

from repro.arith.primes import find_ntt_prime, find_ntt_primes
from repro.automorphism.mapping import galois_eval_permutation
from repro.core.stages import MuxConflictError
from repro.fault.injector import FaultInjector, FaultSpec
from repro.fhe.backend import (
    IntegrityBackend,
    KernelBackend,
    NumpyBackend,
    ObservedBackend,
    VpuBackend,
    get_backend,
    ladder_backend,
    observed,
    use_backend,
)
from repro.kernels import CompiledBackend
from repro.ntt.negacyclic import HostModulusError
from repro.obs import observe
from tests.test_ntt_boundary_moduli import _prime_just_above, reference_forward

N = 64
M = 16
GALOIS_K = 5
#: Host primes: the Shoup edge (just below 2^30) and two more below it.
PRIMES = tuple(find_ntt_primes(2 * N, 30, 3))
#: Past the host limit: just above 2^30, and just below 2^31 (the widest
#: prime of the retired vectorized tier).  Every host backend refuses
#: them; the VPU model runs them.
WIDE = (_prime_just_above(2 * N, 1 << 30), find_ntt_prime(2 * N, 31))
#: The backends whose kernels run on the VPU model.
VPU_BACKED = ("vpu", "integrity-off")

BACKENDS = {
    "numpy-fast": NumpyBackend,
    "numpy-clamped": lambda: NumpyBackend(mode="clamped"),
    "numpy-golden": lambda: NumpyBackend(mode="golden"),
    "compiled-cext": CompiledBackend,
    "compiled-none": lambda: CompiledBackend(provider="none"),
    "vpu": lambda: VpuBackend(m=M),
    "integrity-off": lambda: IntegrityBackend(VpuBackend(m=M), "off"),
    "integrity-detect": lambda: IntegrityBackend(NumpyBackend(), "detect"),
}
OPTIONAL = ("keyswitch_inner_product", "keyswitch_apply", "drop_top_limb",
            "tensor_product", "check_keyswitch_accumulation")


def _rows(primes, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, q, N, dtype=np.uint64) for q in primes])


@pytest.fixture(params=[False, True], ids=["bare", "observed"])
def wrap(request):
    """Hands a backend out bare, or observed under a live obs hook."""
    if not request.param:
        yield lambda backend: backend
        return
    with observe():
        yield observed


@pytest.mark.parametrize("name", BACKENDS)
class TestConformance:
    def test_is_a_kernel_backend_without_single_row_methods(self, name, wrap):
        backend = wrap(BACKENDS[name]())
        assert isinstance(backend, KernelBackend)
        for single in ("forward_ntt", "inverse_ntt", "automorphism_eval"):
            assert not hasattr(backend, single)

    @pytest.mark.parametrize("primes", [PRIMES[:1], WIDE[:1], WIDE[1:],
                                        PRIMES], ids=["L1-lt2^30", "L1-gt2^30",
                                                      "L1-lt2^31", "L3"])
    def test_batches_match_golden_rows(self, name, wrap, primes):
        backend = wrap(BACKENDS[name]())
        x = _rows(primes)
        if primes[0] in WIDE and name not in VPU_BACKED:
            for kernel in (backend.forward_ntt_batch,
                           backend.inverse_ntt_batch):
                with pytest.raises(HostModulusError, match=str(primes[0])):
                    kernel(x, primes)
            return
        golden_fwd = np.stack([reference_forward(row, q)
                               for row, q in zip(x, primes)])
        perm = galois_eval_permutation(N, GALOIS_K)
        golden_auto = np.stack([perm.apply(row) for row in golden_fwd])
        fwd = backend.forward_ntt_batch(x, primes)
        assert np.array_equal(fwd, golden_fwd)
        assert np.array_equal(backend.inverse_ntt_batch(fwd, primes), x)
        assert np.array_equal(
            backend.automorphism_eval_batch(fwd, GALOIS_K, primes),
            golden_auto)

    @pytest.mark.parametrize("rows, primes", [(3, PRIMES[:2]), (2, PRIMES)],
                             ids=["more-rows", "more-primes"])
    def test_rows_and_primes_that_disagree(self, name, wrap, rows, primes):
        """No backend drops or invents a limb: an NTT batch whose row
        count is not its prime count is refused, and the Galois action
        (prime-independent) never changes the row count."""
        backend = wrap(BACKENDS[name]())
        x = _rows(PRIMES)[:rows]
        with pytest.raises(ValueError):
            backend.forward_ntt_batch(x, primes)
        with pytest.raises(ValueError):
            backend.inverse_ntt_batch(x, primes)
        try:
            out = backend.automorphism_eval_batch(x, GALOIS_K, primes)
        except ValueError:
            return
        assert len(out) == rows


@pytest.mark.parametrize("name", BACKENDS)
class TestWrapperTransparency:
    def test_attributes_read_through(self, name):
        bare = BACKENDS[name]()
        with observe():
            wrapped = observed(bare)
            assert isinstance(wrapped, ObservedBackend)
            assert observed(wrapped) is wrapped  # never wrapped twice
            assert wrapped.name == bare.name
            for attr in ("vpu", "inner", "program_cache_hits", "fallbacks"):
                assert hasattr(wrapped, attr) == hasattr(bare, attr)
                if hasattr(bare, attr):
                    assert getattr(wrapped, attr) is getattr(bare, attr)
            if hasattr(bare, "integrity_counters"):
                assert wrapped.integrity_counters() == \
                    bare.integrity_counters()
            # Callers probe the optional methods with getattr.
            for method in OPTIONAL:
                assert hasattr(wrapped, method) == hasattr(bare, method)
        assert observed(bare) is bare  # no hook: handed back as is

    def test_one_closed_span_per_kernel_call(self, name):
        backend = BACKENDS[name]()
        x = _rows(PRIMES)
        with observe() as obs:
            observed(backend).forward_ntt_batch(x, PRIMES)
            spans = [s for s in obs.tracer.spans if s.parent is None]
            assert [s.name for s in spans] == [f"{backend.name}.batch.ntt"]
            assert spans[0].args == {"limbs": len(PRIMES), "n": N}
            assert obs.tracer.unwind() == 0


#: An integrity layer around the compiled backend, under every policy.
GUARDED = {f"integrity-{policy}-compiled":
           lambda policy=policy: IntegrityBackend(CompiledBackend(), policy)
           for policy in ("off", "detect", "retry", "degrade")}


@pytest.mark.parametrize("name", [*BACKENDS, *GUARDED])
def test_one_keyswitch_slot(name, wrap):
    """Plain keyswitches and hoisted rotations share ``keyswitch_apply``:
    no backend — bare or observed, an integrity layer around the
    compiled backend under any policy among them — has a second slot."""
    backend = wrap({**BACKENDS, **GUARDED}[name]())
    assert not hasattr(backend, "keyswitch_hoisted")
    assert hasattr(backend, "keyswitch_apply") == ("compiled" in name)


class TestObservedOutputsAndCycles:
    def test_vpu_bits_and_cycles_identical(self):
        primes = PRIMES + WIDE
        x = _rows(primes)
        bare = VpuBackend(m=M)
        off = bare.forward_ntt_batch(x, primes)
        watched = VpuBackend(m=M)
        with observe() as obs:
            on = observed(watched).forward_ntt_batch(x, primes)
        assert np.array_equal(off, on)
        assert watched.vpu.stats.cycles == bare.vpu.stats.cycles
        assert obs.tracer.total_cycles() == bare.vpu.stats.cycles
        assert obs.metrics.counter("backend.kernels.ntt") == len(primes)

    def test_fused_keyswitch_observed(self):
        compiled = CompiledBackend()
        rng = np.random.default_rng(4)
        primes = PRIMES[:1] * 2
        stack = rng.integers(0, primes[0], (3, 2, N), dtype=np.uint64)
        off = compiled.keyswitch_inner_product(stack, stack, stack, primes)
        with observe() as obs:
            on = observed(compiled).keyswitch_inner_product(
                stack, stack, stack, primes)
        assert np.array_equal(off[0], on[0]) and np.array_equal(off[1], on[1])
        assert [s.name for s in obs.tracer.spans] == \
            ["compiled.keyswitch.inner_product"]

    def test_registry_hands_out_observed_only_under_a_hook(self):
        backend = NumpyBackend()
        with use_backend(backend) as handed:
            assert handed is backend and get_backend() is backend
            with observe():
                assert isinstance(get_backend(), ObservedBackend)
            assert get_backend() is backend

    def test_integrity_check_cost_is_outer_self_time(self):
        """The guarded backend gets a span of its own under the
        integrity span, so the checks are the outer span's self time."""
        backend = IntegrityBackend(NumpyBackend(), "detect")
        with observe() as obs:
            observed(backend).forward_ntt_batch(_rows(PRIMES), PRIMES)
            outer, = [s for s in obs.tracer.spans if s.parent is None]
            assert outer.name == "integrity.batch.ntt"
            assert [c.name for c in outer.children] == ["numpy.batch.ntt"]
            assert obs.metrics.counter("integrity.checks") == 1


class TestLadder:
    def test_one_ladder(self):
        assert ladder_backend(1).mode == "clamped"
        assert ladder_backend(2).mode == ladder_backend(7).mode == "golden"
        with pytest.raises(ValueError):
            ladder_backend(0)
        backend = IntegrityBackend(NumpyBackend(), "degrade")
        assert backend._level_backend(0) is backend.inner
        assert backend._level_backend(1) is ladder_backend(1)


class TestSpansCannotDangle:
    """Regression: ``VpuBackend.forward_ntt`` used to open
    ``vpu.kernel.ntt`` before ``_program()`` could raise, so a
    detect-degrade dispatch over quarantined programs left two spans
    open and the caller's next ``end()`` closed the wrong one."""

    def _assert_stack_restored(self, obs, outer):
        assert obs.tracer.depth == 1
        assert [s.name for s in obs.tracer.spans if s.end_ns is None] \
            == ["outer"]
        assert obs.tracer.end() is outer
        assert obs.tracer.unwind() == 0

    def test_degrade_over_quarantined_programs(self):
        inner = VpuBackend(m=M)
        inner.quarantine_program("ntt", N)
        backend = IntegrityBackend(inner, "degrade")
        x = _rows(PRIMES)
        with use_backend(backend), observe() as obs:
            outer = obs.tracer.begin("outer")
            out = get_backend().forward_ntt_batch(x, PRIMES)
            self._assert_stack_restored(obs, outer)
        assert backend.degrade_level == 1
        assert np.array_equal(
            out, NumpyBackend().forward_ntt_batch(x, PRIMES))

    def test_kernel_that_raises_mid_execution(self):
        # A raw mux-select fault makes the stage model raise from inside
        # vpu.execute, whose own span is still open at that point.
        backend = VpuBackend(m=M)
        backend.vpu.install_fault_hook(FaultInjector(
            [FaultSpec("network", "stuck1", cycle=0, bit=0, word=1, lane=0)]))
        with use_backend(backend), observe() as obs:
            outer = obs.tracer.begin("outer")
            with pytest.raises(MuxConflictError):
                get_backend().forward_ntt_batch(_rows(PRIMES[:1]), PRIMES[:1])
            self._assert_stack_restored(obs, outer)
