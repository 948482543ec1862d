"""The observability layer: tracer, metrics, exporters, neutrality.

The load-bearing assertions here are the overhead-neutrality contract
(with the obs hook uninstalled, kernel outputs are bit-identical and
dispatch cycle counts integer-identical to an instrumented run) and the
attribution reconciliation (per-phase cycles sum exactly to the
backend's reported total).
"""

import json

import numpy as np
import pytest

from repro import obs as verbs
from repro.accel.dram import DramModel
from repro.accel.parallel import ParallelVpuPool
from repro.arith.primes import find_ntt_prime, find_ntt_primes
from repro.fault.injector import FaultInjector, FaultSpec
from repro.fhe.backend import NumpyBackend, VpuBackend, observed, use_backend
from repro.fhe.ckks import CkksContext
from repro.fhe.params import toy_params
from repro.fhe.sampling import sample_uniform_poly
from repro.obs import (
    CAT_PHASE,
    Histogram,
    MetricsRegistry,
    Observer,
    Tracer,
    current_obs_hook,
    cycle_attribution,
    enable_from_env,
    install_obs_hook,
    observe,
)
from repro.obs.export import (
    format_attribution,
    host_envelope,
    metrics_snapshot,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.recover.executor import DivergenceError

N = 64
M = 16


class TestTracer:
    def test_nesting_and_parents(self):
        t = Tracer()
        outer = t.begin("outer")
        inner = t.begin("inner")
        assert inner.parent is outer
        assert t.depth == 2
        t.end()
        t.end()
        assert t.depth == 0
        assert t.roots() == [outer]
        assert outer.children == [inner]

    def test_cycles_charge_innermost_open_span(self):
        t = Tracer()
        t.begin("outer")
        t.add_cycles(10)
        t.begin("inner")
        t.add_cycles(5)
        t.end()
        t.add_cycles(1)
        t.end()
        outer, inner = t.roots()[0], t.roots()[0].children[0]
        assert inner.cycles_self == 5
        assert outer.cycles_self == 11
        assert outer.subtree_cycles() == 16
        assert t.total_cycles() == 16

    def test_cycles_outside_any_span_are_dropped(self):
        t = Tracer()
        t.add_cycles(99)
        assert t.total_cycles() == 0

    def test_end_on_empty_stack_is_noop(self):
        t = Tracer()
        assert t.end() is None

    def test_unwind_closes_dangling_spans(self):
        t = Tracer()
        t.begin("a")
        t.begin("b")
        assert t.unwind() == 2
        assert t.depth == 0
        assert all(s.end_ns is not None for s in t.spans)

    def test_end_merges_args(self):
        t = Tracer()
        t.begin("a", cat="x", n=4)
        span = t.end(cycles=7)
        assert span.args == {"n": 4, "cycles": 7}
        assert span.cat == "x"


class TestCycleAttribution:
    def test_charges_nearest_phase_ancestor(self):
        t = Tracer()
        t.begin("phase.a", cat=CAT_PHASE)
        t.begin("vpu.execute")
        t.add_cycles(100)
        t.end()
        t.end()
        t.begin("vpu.execute")  # outside any phase
        t.add_cycles(7)
        t.end()
        table = cycle_attribution(t)
        assert table["phase.a"]["cycles"] == 100
        assert table["(unattributed)"]["cycles"] == 7
        assert sum(row["cycles"] for row in table.values()) \
            == t.total_cycles()

    def test_nested_phases_never_double_count(self):
        t = Tracer()
        t.begin("phase.outer", cat=CAT_PHASE)
        t.add_cycles(3)
        t.begin("phase.inner", cat=CAT_PHASE)
        t.add_cycles(10)
        t.end()
        t.end()
        table = cycle_attribution(t)
        assert table["phase.outer"]["cycles"] == 3
        assert table["phase.inner"]["cycles"] == 10
        assert sum(row["cycles"] for row in table.values()) == 13

    def test_format_attribution_mentions_every_phase(self):
        t = Tracer()
        t.begin("phase.a", cat=CAT_PHASE)
        t.add_cycles(5)
        t.end()
        text = format_attribution(t)
        assert "phase.a" in text and "total" in text


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 4)
        assert m.counter("a") == 5
        assert m.counter("missing") == 0

    def test_gauge_keeps_last_value(self):
        m = MetricsRegistry()
        m.gauge("g", 1.0)
        m.gauge("g", 2.5)
        assert m.gauges["g"] == 2.5

    def test_histogram_summary(self):
        m = MetricsRegistry()
        for v in (1.0, 3.0, 2.0):
            m.observe("h", v)
        h = m.histograms["h"].to_dict()
        assert h == {"count": 3, "total": 6.0, "mean": 2.0,
                     "min": 1.0, "max": 3.0}

    def test_empty_histogram_serializes(self):
        assert Histogram().to_dict()["count"] == 0

    def test_snapshot_deterministic_and_reset(self):
        m = MetricsRegistry()
        m.inc("b")
        m.inc("a")
        m.gauge("z", 1)
        snap = m.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        m.reset()
        assert m.snapshot() == {"counters": {}, "gauges": {},
                                "histograms": {}, "sketches": {}}


class TestHookManagement:
    def test_install_returns_previous(self):
        first = Observer()
        assert install_obs_hook(first) is None
        second = Observer()
        assert install_obs_hook(second) is first
        assert current_obs_hook() is second
        install_obs_hook(None)
        assert current_obs_hook() is None

    def test_observe_contextmanager_restores(self):
        assert current_obs_hook() is None
        with observe() as obs:
            assert current_obs_hook() is obs
        assert current_obs_hook() is None

    def test_enable_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert enable_from_env() is None
        monkeypatch.setenv("REPRO_TRACE", "1")
        obs = enable_from_env()
        assert obs is not None and current_obs_hook() is obs
        assert enable_from_env() is obs  # idempotent while active
        install_obs_hook(None)


class TestExporters:
    def _traced(self) -> Tracer:
        t = Tracer()
        t.begin("phase.a", cat=CAT_PHASE, n=4)
        t.begin("vpu.execute", cat="vpu")
        t.add_cycles(12)
        t.end()
        t.end()
        return t

    def test_chrome_trace_shape(self):
        trace = to_chrome_trace(self._traced(), "unit-test")
        assert validate_chrome_trace(trace) == []
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == {"phase.a", "vpu.execute"}
        execute = next(e for e in events if e["name"] == "vpu.execute")
        assert execute["args"]["cycles"] == 12
        phase = next(e for e in events if e["name"] == "phase.a")
        assert phase["args"]["cycles_subtree"] == 12
        assert json.dumps(trace)  # serializable

    def test_chrome_trace_closes_open_spans(self):
        t = Tracer()
        t.begin("dangling")
        trace = to_chrome_trace(t)
        assert validate_chrome_trace(trace) == []

    def test_validator_rejects_malformed(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "x"}]}) != []

    def test_metrics_snapshot_envelope(self):
        m = MetricsRegistry()
        m.inc("hits", 3)
        snap = metrics_snapshot(m, bench="obs", extra={"workload": "t"})
        assert snap["schema"] == 1
        assert snap["bench"] == "obs"
        assert set(snap["host"]) == {"machine", "python", "numpy"}
        assert snap["counters"]["hits"] == 3
        assert snap["workload"] == "t"

    def test_host_envelope_matches_bench_kernels_format(self):
        env = host_envelope("faults")
        assert env["schema"] == 1 and env["bench"] == "faults"


def _ntt_rows(seed: int = 11):
    primes = tuple(find_ntt_primes(2 * N, 28, 3))
    rng = np.random.default_rng(seed)
    rows = np.stack([rng.integers(0, q, size=N, dtype=np.uint64)
                     for q in primes])
    return rows, primes


class TestNeutrality:
    """Tracing off vs. on: bit-identical outputs, identical cycles."""

    def test_kernel_batch_bit_and_cycle_identical(self):
        rows, primes = _ntt_rows()
        baseline = VpuBackend(m=M)
        off = baseline.forward_ntt_batch(rows, primes)
        off_cycles = baseline.vpu.stats.cycles

        traced = VpuBackend(m=M)
        with observe() as obs:
            on = traced.forward_ntt_batch(rows, primes)
        assert np.array_equal(off, on)
        assert traced.vpu.stats.cycles == off_cycles
        assert obs.tracer.total_cycles() == off_cycles

    def test_keyswitch_phase_sum_reconciles_with_backend_total(self):
        from repro.fhe.keyswitch import (
            apply_keyswitch,
            generate_keyswitch_key,
            mod_down,
        )
        from repro.fhe.rns import get_basis

        params = toy_params()
        rng = np.random.default_rng(7)
        full = params.primes + (params.special_prime,)
        ksk = generate_keyswitch_key(
            params, sample_uniform_poly(params.n, full, rng),
            sample_uniform_poly(params.n, full, rng), rng)
        x = sample_uniform_poly(params.n, params.primes, rng)
        basis = get_basis(params.primes, params.special_prime)

        backend = VpuBackend(m=M)
        with use_backend(backend), observe() as obs:
            t0, t1 = apply_keyswitch(x, ksk, params)
            mod_down(t0, basis)
            mod_down(t1, basis)
        table = cycle_attribution(obs.tracer)
        assert "(unattributed)" not in table
        phase_names = set(table)
        assert {"keyswitch.decompose", "keyswitch.ntt",
                "keyswitch.mod_down"} <= phase_names
        assert sum(row["cycles"] for row in table.values()) \
            == backend.vpu.stats.cycles

    def test_dram_and_sram_traffic_metrics(self):
        from repro.accel.sram import OnChipSram

        dram = DramModel()
        sram = OnChipSram()
        with observe() as obs:
            dram.transfer(np.zeros(32, dtype=np.uint64))
            _, cycles = sram.stage(np.zeros(16, dtype=np.uint64),
                                   write=True)
        assert obs.metrics.counter("dram.bytes") == 32 * 8
        assert obs.metrics.histograms["dram.transfer_ns"].count == 1
        assert obs.metrics.counter("sram.bytes") == 16 * 8
        assert obs.metrics.counter("sram.stage_cycles") == cycles
        names = [s.name for s in obs.tracer.spans]
        assert "dram.transfer" in names and "sram.stage" in names

    @staticmethod
    def _drive(api):
        """One span with every verb inside it, through ``api`` — the
        ``repro.obs`` module or an :class:`Observer`."""
        with api.span("outer", cat=CAT_PHASE, k=1) as span:
            api.add_cycles(7)
            api.count("c", 2)
            api.gauge("g", 3)
            api.observe_value("h", 4)
            api.record("elapsed", dur_ns=5, a=1)
            assert span.set(z=9) is None

    def test_verbs_do_nothing_without_a_hook(self):
        reads = []
        idle = Observer(Tracer(clock=lambda: reads.append(None) or len(reads)))
        reads.clear()
        assert current_obs_hook() is None
        handle = verbs.span("a", cat=CAT_PHASE, k=1)
        assert handle is verbs.span("b") is verbs.request("r", request=1)
        assert handle.ctx is None
        self._drive(verbs)
        with verbs.request("r") as trace:
            trace.set(status="ok")
            assert verbs.current_trace_context() is None
        rows, primes = _ntt_rows()
        VpuBackend(m=M).forward_ntt_batch(rows, primes)
        assert reads == [] and idle.tracer.spans == []
        assert idle.metrics.snapshot() == MetricsRegistry().snapshot()

    def test_verbs_match_observer_methods_under_a_hook(self):
        with observe() as hooked:
            self._drive(verbs)
        direct = Observer()
        self._drive(direct)
        # ...and the bare begin/end pair the verbs wrap.
        paired = Observer()
        paired.begin("outer", cat=CAT_PHASE, k=1)
        paired.add_cycles(7)
        paired.count("c", 2)
        paired.gauge("g", 3)
        paired.observe_value("h", 4)
        paired.record("elapsed", dur_ns=5, a=1)
        paired.end(z=9)

        def shape(observer):
            assert observer.tracer.depth == 0
            return ([(s.name, s.cat, s.args, s.cycles_self,
                      s.parent and s.parent.name, s.end_ns is not None)
                     for s in observer.tracer.spans],
                    observer.metrics.snapshot())

        assert shape(hooked) == shape(direct) == shape(paired)
        assert [s.name for s in hooked.tracer.spans] == ["outer", "elapsed"]


class TestIntegrityMetrics:
    """Integrity-layer counters surface through the metrics registry."""

    def test_detect_counts_flow_to_registry(self):
        from repro.fhe.backend import IntegrityBackend

        rows, primes = _ntt_rows()
        inner = VpuBackend(m=M)
        inner.vpu.install_fault_hook(FaultInjector(
            [FaultSpec("alu", "stuck1", cycle=0, bit=33, lane=2)]))
        backend = IntegrityBackend(inner, "detect")
        with observe() as obs:
            observed(backend).forward_ntt_batch(rows, primes)
        assert backend.detections >= 1
        assert obs.metrics.counter("integrity.detections") \
            == backend.detections
        assert obs.metrics.counter("integrity.flagged") == backend.flagged


class TestCacheMetricsReset:
    """Satellite: clear_caches() resets the hit/miss counters and the
    quarantine state, observably through the metrics registry."""

    def test_hits_misses_counted_and_reset(self):
        rows, primes = _ntt_rows()
        backend = VpuBackend(m=M)
        with observe() as obs:
            watched = observed(backend)
            # One program per kernel shape serves every prime: one
            # lookup per batch.
            watched.forward_ntt_batch(rows, primes)  # compiles: a miss
            watched.forward_ntt_batch(rows, primes)  # replays: a hit
            assert len(primes) > 1
            assert backend.program_cache_misses == 1
            assert backend.program_cache_hits == 1
            assert obs.metrics.gauges["backend.program_cache.misses"] == 1
            assert obs.metrics.gauges["backend.program_cache.hits"] == 1
            assert obs.metrics.gauges["backend.program_cache.size"] == 1

            watched.clear_caches()
            assert backend.program_cache_hits == 0
            assert backend.program_cache_misses == 0
            assert obs.metrics.gauges["backend.program_cache.hits"] == 0
            assert obs.metrics.gauges["backend.program_cache.misses"] == 0
            assert obs.metrics.gauges["backend.program_cache.size"] == 0
            assert obs.metrics.gauges["backend.quarantined_programs"] == 0
            assert obs.metrics.counter("backend.program_cache.clears") == 1

        # Lifetime compilation record survives the cache clear.
        assert backend.program_compilations == 1

    def test_counters_are_plain_ints_without_hook(self):
        rows, primes = _ntt_rows()
        backend = VpuBackend(m=M)
        assert current_obs_hook() is None
        backend.forward_ntt_batch(rows, primes)
        backend.forward_ntt_batch(rows, primes)
        assert backend.program_cache_misses == 1
        assert backend.program_cache_hits == 1


class TestPoolObservability:
    """The pool's scheduling figures, as gauges and on its span."""

    def test_clean_pool_utilization_and_span(self):
        q = find_ntt_prime(2 * N, 28)
        rng = np.random.default_rng(8)
        limbs = rng.integers(0, q, size=(4, N), dtype=np.uint64)
        pool = ParallelVpuPool(2, M, q)
        with observe() as obs:
            _, report = pool.run_ntt_batch(limbs, N)
        # Even split over two units: full utilization.
        assert report.utilization == 1.0
        assert report.speedup == report.utilization * pool.num_vpus
        assert report.total_cycles == sum(report.per_vpu_cycles)
        assert report.makespan_cycles == max(report.per_vpu_cycles)
        gauges = obs.metrics.gauges
        assert gauges["pool.makespan_cycles"] == report.makespan_cycles
        assert gauges["pool.total_cycles"] == report.total_cycles
        assert gauges["pool.utilization"] == round(report.utilization, 6)
        names = [s.name for s in obs.tracer.spans]
        assert "pool.run_ntt_batch" in names
        # Every execution's cycles landed inside the pool span.
        assert obs.tracer.total_cycles() == report.total_cycles

    def test_pool_results_identical_with_tracing(self):
        q = find_ntt_prime(2 * N, 28)
        rng = np.random.default_rng(9)
        limbs = rng.integers(0, q, size=(3, N), dtype=np.uint64)
        baseline, base_report = ParallelVpuPool(2, M, q).run_ntt_batch(
            limbs, N)
        with observe():
            traced, traced_report = ParallelVpuPool(2, M, q).run_ntt_batch(
                limbs, N)
        assert np.array_equal(baseline, traced)
        assert base_report == traced_report


class _Boom(RuntimeError):
    pass


def _rotate_on_a_raising_backend(tmp_path):
    ctx = CkksContext(toy_params(), seed=1)
    ctx.generate_galois_keys([1])
    ct = ctx.encrypt(np.zeros(ctx.params.slots))

    class Raising(NumpyBackend):
        def forward_ntt_batch(self, residues, primes):
            raise _Boom

    with use_backend(Raising()):
        ctx.rotate(ct, 1)


def _pool_with_a_raising_vpu(tmp_path):
    pool = ParallelVpuPool(2, M, find_ntt_prime(2 * N, 28))

    def execute(program, primes, images):
        raise _Boom

    pool.backend.units[1].execute = execute
    pool.run_ntt_batch(np.zeros((2, N), dtype=np.uint64), N)


def _resume_that_diverges(tmp_path):
    from tests.test_recover_executor import run_with_a_tampered_digest

    run_with_a_tampered_digest(tmp_path).resume()


class TestSpansCloseOnError:
    """Regression: instrumentation sites were bare begin/end pairs, so
    a raise between them left the span open and the *next* request's
    root nested under it.  Every span is a ``with`` block now."""

    @pytest.mark.parametrize("workload, error, span", [
        (_rotate_on_a_raising_backend, _Boom, "keyswitch.ntt"),
        (_pool_with_a_raising_vpu, _Boom, "pool.run_ntt_batch"),
        (_resume_that_diverges, DivergenceError, "recover.replay"),
    ])
    def test_a_raise_inside_a_span_leaves_none_open(self, tmp_path, workload,
                                                    error, span):
        with observe() as obs:
            with pytest.raises(error):
                workload(tmp_path)
            assert span in [s.name for s in obs.tracer.spans]
            assert obs.tracer.depth == 0
            assert obs.tracer.begin("next request").parent is None
