"""Thread-safety of the module-level caches — the one batch-plan cache
that numpy and the compiled kernels share among them, the compiled
kernels' workspace pools, the integrity checker's tables and counters,
a CKKS context's plaintext cache — and the cache-reset metrics contract
(gauges zeroed on clear)."""

import ctypes
import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.arith.primes import find_ntt_primes
from repro.fault.integrity import AbftChecker
from repro.fhe.backend import NumpyBackend, VpuBackend, clear_caches, observed
from repro.kernels import CompiledBackend, cext, resolve_provider
from repro.kernels.backend import get_workspace
from repro.ntt import negacyclic
from repro.ntt.negacyclic import get_batched_ntt, plan_cache
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


class _RecordingProvider:
    """The C provider, noting the id of every plan its NTTs are handed."""

    def __init__(self, impl):
        self.name = impl.name
        self._impl = impl
        self.plans: set[int] = set()

    def fwd_ntt(self, plan, *arrays):
        self.plans.add(id(plan))
        self._impl.fwd_ntt(plan, *arrays)

    def inv_ntt(self, plan, *arrays):
        self.plans.add(id(plan))
        self._impl.inv_ntt(plan, *arrays)


@pytest.fixture
def c_provider():
    impl = resolve_provider()
    if impl is None:
        pytest.skip("no compiled provider available (needs a C compiler)")
    return _RecordingProvider(impl)


class TestBatchedNttCache:
    """One plan per batch shape, read by numpy (fast and clamped) and by
    the compiled kernels alike, from one counted cache."""

    N = 64
    PRIMES = tuple(find_ntt_primes(2 * 64, 28, 3))

    def test_single_instance_under_concurrency(self, monkeypatch,
                                               c_provider):
        built, walked = [], set()

        class Counting(negacyclic.BatchedNegacyclicNtt):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

            def forward(self, *args, **kwargs):
                walked.add(id(self))
                return super().forward(*args, **kwargs)

        monkeypatch.setattr(negacyclic, "BatchedNegacyclicNtt", Counting)
        clear_caches()
        x = np.random.default_rng(3).integers(
            0, min(self.PRIMES), (len(self.PRIMES), self.N), dtype=np.uint64)
        want = NumpyBackend("golden").forward_ntt_batch(x, self.PRIMES)
        backends = [NumpyBackend(), NumpyBackend("clamped"),
                    CompiledBackend(provider=c_provider)]
        turn = itertools.count()

        def dispatch():
            backend = backends[next(turn) % len(backends)]
            evals = backend.forward_ntt_batch(x, self.PRIMES)
            return (np.array_equal(evals, want) and np.array_equal(
                backend.inverse_ntt_batch(evals, self.PRIMES), x))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = _hammer(dispatch)
        finally:
            sys.setswitchinterval(interval)
        assert all(ok for batch in results for ok in batch)
        # One first-use oracle per (kernel, shape): forward and inverse.
        assert backends[2].self_checks == 2
        cache = plan_cache()
        assert len(built) == 1 and len(cache) == 1
        assert cache.misses == 1
        assert cache.hits + cache.misses == 2 * THREADS * 20
        # numpy and C walked the one plan object.
        assert walked == c_provider.plans == {id(built[0])}

    def test_numpy_and_c_read_the_same_arrays(self):
        """Every row block's views — its natural and transposed stage
        views too — read the stacked uint32 tables C reads: none is a
        copy, and none is a wider twin."""
        n = 8192
        primes = tuple(find_ntt_primes(2 * n, 28, 9))
        plan = get_batched_ntt(n, primes)
        ctables = cext._tables(plan, "test")

        def address(name):
            return ctypes.cast(getattr(ctables, name), ctypes.c_void_p).value

        assert len(plan._blocks) > 1
        for blk in plan._blocks:
            for name in ("psi", "psi_sh", "unfold", "unfold_sh"):
                table = getattr(plan, name)
                assert table.dtype == np.uint32
                assert address(name) == table.ctypes.data
                assert np.shares_memory(getattr(blk, name), table)
            for name, groups in blk.stages.items():
                table = getattr(plan, name)
                assert table.dtype == np.uint32
                assert address(name) == table.ctypes.data
                views = [view for group in groups for view in group]
                assert len(views) == plan.log_n
                assert {view.ndim for view in views} == {3, 4}
                assert all(np.shares_memory(view, table) for view in views)

    def test_clear_caches_drops_the_plan_and_its_gauges(self, c_provider):
        x = np.zeros((len(self.PRIMES), self.N), dtype=np.uint64)
        with observe() as obs:
            clear_caches()
            compiled = observed(CompiledBackend(provider=c_provider))
            for _ in range(2):
                compiled.forward_ntt_batch(x, self.PRIMES)
                NumpyBackend().forward_ntt_batch(x, self.PRIMES)
            gauges = obs.metrics.gauges
            assert gauges["backend.compiled_plan_cache.size"] == 1
            assert gauges["backend.compiled_plan_cache.misses"] == 1
            clear_caches()
            assert len(plan_cache()) == 0
            assert plan_cache().hits == plan_cache().misses == 0
            assert all(gauges[f"backend.compiled_plan_cache.{name}"] == 0
                       for name in ("hits", "misses", "size"))


class TestBlockedNumpyEngine:
    """Threads share a plan whose numpy walk runs in several row blocks:
    the plan holds no scratch, so every result equals the serial one."""

    N = 4096
    PRIMES = tuple(find_ntt_primes(2 * 4096, 28, 20))

    def test_concurrent_calls_match_the_serial_result(self):
        plan = get_batched_ntt(self.N, self.PRIMES)
        assert len(plan._blocks) > 1
        rng = np.random.default_rng(5)
        inputs = [rng.integers(0, 1 << 40, (len(self.PRIMES), self.N),
                               dtype=np.uint64) for _ in range(2)]
        calls = [(run, clamped, x) for run in (plan.forward, plan.inverse)
                 for clamped in (False, True) for x in inputs]
        want = [run(x, clamped=clamped).copy() for run, clamped, x in calls]
        turn = itertools.count()

        def dispatch():
            i = next(turn) % len(calls)
            run, clamped, x = calls[i]
            return i, run(x, clamped=clamped)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = _hammer(dispatch, per_thread=4)
        finally:
            sys.setswitchinterval(interval)
        # Checked once every call is done: a result sharing memory with
        # a later call's would have changed under it.
        assert all(np.array_equal(got, want[i])
                   for batch in results for i, got in batch)


class TestFirstUseOracle:
    N = 64
    PRIMES = TestBatchedNttCache.PRIMES

    def test_threads_on_a_new_shape_run_one_oracle(self, c_provider):
        """Testing and adding a (kernel, shape) key is one step: two
        threads that both reach the membership test of a new shape run
        the numpy oracle once between them."""
        backend = CompiledBackend(provider=c_provider)
        barrier = threading.Barrier(2)

        class Rendezvous(set):
            """Holds each membership answer until both threads have
            tested (or, when only one thread can be inside, a short
            timeout): the interleaving where neither sees the other's
            add."""

            def __contains__(self, key):
                found = super().__contains__(key)
                try:
                    barrier.wait(timeout=0.5)
                except threading.BrokenBarrierError:
                    pass
                return found

        backend._checked = Rendezvous()
        x = np.random.default_rng(4).integers(
            0, min(self.PRIMES), (len(self.PRIMES), self.N), dtype=np.uint64)
        want = NumpyBackend().forward_ntt_batch(x, self.PRIMES)
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(
                lambda _: backend.forward_ntt_batch(x, self.PRIMES), range(2)))
        assert all(np.array_equal(got, want) for got in results)
        assert backend.self_checks == 1
        assert backend.kernel_invocations == 2


class TestPlanCache:
    def test_counters_exact_under_concurrency(self):
        plan_cache().clear()
        primes = (Q,)
        results = _hammer(lambda: get_batched_ntt(256, primes), per_thread=25)
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


class TestCompiledWorkspaces:
    """The compiled kernels' scratch comes from per-thread pools
    (``get_workspace``): threads that dispatch the same shapes at once —
    transforms, the row-fused keyswitch and the drop, whose scratch
    holds coefficient and digit rows between their phases — each get
    their own rows and the serial result."""

    N = 256
    PRIMES = tuple(find_ntt_primes(2 * 256, 29, 4))

    def test_concurrent_dispatches_match_the_serial_result(self, c_provider):
        backend = CompiledBackend(provider=c_provider._impl)
        primes, rows = self.PRIMES, len(self.PRIMES)
        rng = np.random.default_rng(11)
        q = np.array(primes, dtype=np.uint64)
        key = rng.integers(0, 1 << 62, (rows - 1, 2, rows, self.N),
                           dtype=np.uint64) % q[None, None, :, None]
        keep = list(range(rows))
        inv = np.array([pow(primes[-1], -1, p) for p in primes[:-1]],
                       dtype=np.uint64)

        def work(x):
            return (backend.forward_ntt_batch(x, primes),
                    backend.inverse_ntt_batch(x, primes),
                    *backend.keyswitch_apply(x[:-1], primes, [key], keep),
                    backend.drop_top_limb(x, primes, inv))

        inputs = [rng.integers(0, 1 << 62, (rows, self.N),
                               dtype=np.uint64) % q[:, None]
                  for _ in range(THREADS)]
        want = [work(x) for x in inputs]  # also the first-use oracles
        barrier = threading.Barrier(THREADS)

        def body(t):
            barrier.wait(timeout=60)
            return [work(inputs[t]) for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                results = list(pool.map(body, range(THREADS), timeout=300))
        finally:
            sys.setswitchinterval(interval)
        wrong = sum(not np.array_equal(got, expected)
                    for t, runs in enumerate(results) for outputs in runs
                    for got, expected in zip(outputs, want[t]))
        assert wrong == 0
        assert backend.fallbacks == 0


class TestAbftCheckerCaches:
    """One checker shared by threads: each weight table, stacked table
    and key image is built once, to the words a lone checker builds,
    and no recorded check is lost."""

    N = 64
    PRIMES = tuple(find_ntt_primes(2 * 64, 28, 3))

    def test_tables_built_once_under_concurrency(self):
        key = np.random.default_rng(2).integers(
            0, min(self.PRIMES), (2, 2, 3, self.N), dtype=np.uint64)
        checker = AbftChecker(seed=7)
        results = _hammer(
            lambda: checker.fused_check(self.N, self.PRIMES, [key]),
            per_thread=5)
        checks = [check for batch in results for check in batch]
        assert len({id(check.intt) for check in checks}) == 1
        assert len({id(check.key_images[0]) for check in checks}) == 1
        assert len(checker._weights) == 2 * len(self.PRIMES)
        alone = AbftChecker(seed=7).fused_check(self.N, self.PRIMES, [key])
        for name in ("intt", "ntt"):
            assert np.array_equal(getattr(checks[0], name),
                                  getattr(alone, name))
        assert np.array_equal(checks[0].key_images[0], alone.key_images[0])

    def test_counters_exact_under_concurrency(self):
        checker = AbftChecker(seed=7)
        x = np.random.default_rng(3).integers(
            0, min(self.PRIMES), (len(self.PRIMES), self.N), dtype=np.uint64)
        y = NumpyBackend().forward_ntt_batch(x, self.PRIMES)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = _hammer(
                lambda: checker.check_ntt_batch(x, y, self.PRIMES))
        finally:
            sys.setswitchinterval(interval)
        assert all(ok for batch in results for ok in batch)
        assert checker.checks == THREADS * 20
        assert checker.mismatches == 0


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


class TestPlaintextCache:
    """Threads on one CKKS context mix hits, misses and evictions of its
    plaintext cache: each result is the serial encode, and the byte
    bound holds once every call is done."""

    def test_concurrent_lookups_match_the_serial_encode(self, monkeypatch):
        from repro.fhe import ckks
        from repro.fhe.params import toy_params

        ctx = ckks.CkksContext(toy_params(), seed=3)
        rng = np.random.default_rng(9)
        vectors = [rng.uniform(-1, 1, ctx.params.slots) for _ in range(4)]
        keys = [(v, level) for v in range(len(vectors)) for level in (1, 2)]
        want = [ctx.encoder.encode(vectors[v], level=level)[0].residues
                for v, level in keys]
        entry = want[-1].nbytes + ctx.params.slots * 16
        budget = 3 * entry  # 3 of the 8 keys: most lookups evict
        monkeypatch.setattr(ckks, "PLAINTEXT_CACHE_BYTES", budget)
        turn = itertools.count()

        def lookup():
            i = next(turn) * 5 % len(keys)
            v, level = keys[i]
            return i, ctx._plaintext(vectors[v], level).residues

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = _hammer(lookup, per_thread=12)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(got, want[i])
                   for batch in results for i, got in batch)
        cache = ctx.plaintexts
        assert cache.nbytes <= budget and len(cache) <= 3
        assert cache.nbytes == sum(
            len(key[1]) + poly.residues.nbytes
            for key, poly in cache._entries.items())


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
