"""Thread-safety of the module-level caches and the cache-reset
metrics contract (gauges zeroed on clear)."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.arith.primes import find_ntt_primes
from repro.fhe.backend import VpuBackend, clear_caches
from repro.kernels.plan import get_plan, get_workspace, plan_cache
from repro.ntt.negacyclic import get_batched_ntt
from repro.ntt.tables import get_tables
from repro.obs import observe

Q = 998244353
THREADS = 8


def _hammer(fn, per_thread: int = 20):
    """Run ``fn`` concurrently from many threads, surfacing exceptions."""
    barrier = threading.Barrier(THREADS)

    def body():
        barrier.wait()
        return [fn() for _ in range(per_thread)]

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        futures = [pool.submit(body) for _ in range(THREADS)]
        return [f.result() for f in futures]


class TestNttTablesCache:
    def test_single_instance_under_concurrency(self):
        get_tables.cache_clear()
        results = _hammer(lambda: get_tables(256, Q))
        instances = {id(t) for batch in results for t in batch}
        assert len(instances) == 1

    def test_distinct_keys_distinct_instances(self):
        get_tables.cache_clear()
        a = get_tables(128, Q)
        b = get_tables(256, Q)
        assert a is not b and a.n == 128 and b.n == 256


class TestBatchedNttCache:
    def test_single_instance_under_concurrency(self):
        get_batched_ntt.cache_clear()
        primes = (Q,)
        results = _hammer(lambda: get_batched_ntt(64, primes))
        instances = {id(t) for batch in results for t in batch}
        assert len(instances) == 1


class TestPlanCache:
    def test_counters_exact_under_concurrency(self):
        plan_cache().clear()
        primes = (Q,)
        results = _hammer(lambda: get_plan(256, primes), per_thread=25)
        total_calls = sum(len(batch) for batch in results)
        cache = plan_cache()
        assert cache.misses == 1
        assert cache.hits == total_calls - 1
        instances = {id(p) for batch in results for p in batch}
        assert len(instances) == 1

    def test_workspaces_are_thread_local(self):
        """Scratch buffers must not be shared across threads — two
        concurrent same-shape dispatches would clobber each other."""
        seen: dict[int, int] = {}
        lock = threading.Lock()

        def body():
            buf = get_workspace(4, 64)
            with lock:
                seen[threading.get_ident()] = id(buf)
            return buf

        _hammer(body, per_thread=1)
        # Same thread -> same buffer; different threads -> different.
        assert len(set(seen.values())) == len(seen)


class TestVpuProgramCache:
    def test_single_compile_under_concurrency(self):
        backend = VpuBackend(m=16)
        results = _hammer(lambda: backend._program("ntt", 64, (Q,)),
                          per_thread=5)
        instances = {id(p) for batch in results for p in batch}
        assert len(instances) == 1
        total_calls = sum(len(batch) for batch in results)
        assert backend.program_cache_misses == 1
        assert backend.program_cache_hits == total_calls - 1
        assert backend.program_compilations == 1

    @pytest.mark.parametrize("units", [1, 2])
    def test_concurrent_batches_on_one_unit_match_the_serial_result(
            self, units):
        """A batch rebinds each unit's modulus and memory per limb: 4
        threads x 6 batches, each thread with its own prime order."""
        n, m, threads = 1024, 64, 4
        primes = find_ntt_primes(2 * n, 28, 4)
        orders = [tuple(primes[t:] + primes[:t]) for t in range(threads)]
        x = np.random.default_rng(5).integers(0, min(primes), (4, n),
                                              dtype=np.uint64)
        backend = VpuBackend(m=m, units=units)
        want = {order: backend.forward_ntt_batch(x, order) for order in orders}
        barrier = threading.Barrier(threads)

        def body(order):
            barrier.wait(timeout=60)
            return [backend.forward_ntt_batch(x, order) for _ in range(6)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(body, orders, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        wrong = sum(not np.array_equal(got, want[order])
                    for order, batches in zip(orders, results)
                    for got in batches)
        assert wrong == 0


class TestClearCachesMetricsReset:
    def test_clear_zeroes_cache_gauges(self):
        """Regression: a snapshot taken after clear_caches() must not
        report the dropped caches' stale hit/miss gauges."""
        with observe() as obs:
            obs.gauge("backend.program_cache.hits", 7)
            obs.gauge("backend.program_cache.misses", 3)
            obs.gauge("backend.compiled_plan_cache.hits", 5)
            obs.gauge("backend.compiled_plan_cache.size", 2)
            obs.gauge("pool.healthy_vpus", 4)  # unrelated gauge survives
            clear_caches()
            gauges = obs.metrics.gauges
            assert gauges["backend.program_cache.hits"] == 0
            assert gauges["backend.program_cache.misses"] == 0
            assert gauges["backend.compiled_plan_cache.hits"] == 0
            assert gauges["backend.compiled_plan_cache.size"] == 0
            assert gauges["pool.healthy_vpus"] == 4

    def test_clear_without_observer_is_safe(self):
        clear_caches()  # no hook installed: must not raise

    def test_zero_gauges_returns_match_count(self):
        with observe() as obs:
            obs.gauge("x.a", 1)
            obs.gauge("x.b", 2)
            obs.gauge("y.c", 3)
            assert obs.zero_gauges("x.") == 2
            assert obs.metrics.gauges["y.c"] == 3

    def test_caches_rebuild_after_clear(self):
        clear_caches()
        tables = get_tables(256, Q)
        out = np.asarray(tables.bitrev)
        assert out.shape == (256,)
        assert plan_cache().misses == 0  # fresh counters
