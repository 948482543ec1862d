"""The six workloads.  Each object is set up from a seed, runs a timed
pass for a number of seconds (optionally under a span recorder), and
checks its outputs against a plaintext reference.

Why each exists is recorded in ``BENCHMARK.json`` and the README.  All
load comes from this process: the closed loops have one caller, the
serve workload one event loop.
"""

from __future__ import annotations

import asyncio
import gc
import sys
import time
import traceback
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path

import numpy as np

from spans import Recorder, instrument, traced_backend

OUT_DIR = Path(__file__).resolve().parent / "out"

#: scale_bits=27 with 30-bit primes decrypts the pipeline to garbage, so
#: the CKKS shape is pinned here.
BENCH_SHAPE = dict(n=8192, levels=8, scale_bits=29, prime_bits=30)
VPU_SHAPE = dict(n=1024, levels=3, scale_bits=26, prime_bits=28)
SMOKE_SHAPE = dict(n=256, levels=3, scale_bits=26, prime_bits=28)
SMOKE_PIPELINE_SHAPE = dict(n=512, levels=6, scale_bits=27, prime_bits=29)

_clock = time.perf_counter

_YARD = np.random.default_rng(0).integers(0, 1 << 30, (8, 8192),
                                          dtype=np.uint64)
_YARD_Q = np.uint64((1 << 30) - 35)
#: What :func:`yardstick` takes on the host the first baseline was
#: measured on, when that host is quiet.
NOMINAL_YARDSTICK_S = 1.7e-3


def yardstick() -> float:
    """Seconds one fixed numpy computation takes right now: six modular
    products over an (8, 8192) residue matrix, the kind of work the
    scheme's glue does, in code no change to the program can touch.

    This shared host runs everything 10-60 % slower for seconds or for
    minutes at a time, the yardstick included (the README has the
    measurements).  Every timed op is therefore followed, outside its
    timing, by two yardstick calls, and recorded as seconds at nominal
    host speed: ``seconds * nominal / yardstick``.
    """
    start = _clock()
    x = _YARD
    for _ in range(6):
        x = x * _YARD % _YARD_Q
    return _clock() - start


def host_slowdown(yardstick_seconds) -> float:
    """How much slower than nominal the host ran (1.0 = nominal)."""
    return float(np.median(yardstick_seconds)) / NOMINAL_YARDSTICK_S


class Pass:
    """What one timed pass produced."""

    def __init__(self, kinds):
        #: Seconds per completed op at nominal host speed, by op kind.
        self.samples: dict[str, list[float]] = {k: [] for k in kinds}
        #: The same ops as the clock read them.
        self.raw: dict[str, list[float]] = {k: [] for k in kinds}
        self.attempted = 0
        self.failed = 0
        #: Ops per second at nominal host speed, as the workload
        #: defines it (see the README).
        self.throughput = 0.0
        #: Per-layer values the workload counts itself (no tracing).
        self.layer: dict[str, float] = {}

    def add(self, kind: str, seconds: float, slowdown: float) -> None:
        self.raw[kind].append(seconds)
        self.samples[kind].append(seconds / slowdown)

    def merge(self, other: "Pass") -> None:
        """Fold in a later segment of the same kind of pass (counts the
        workload makes itself are per round, so the later one stands)."""
        for kind in other.samples:
            self.samples[kind] += other.samples[kind]
            self.raw[kind] += other.raw[kind]
        self.attempted += other.attempted
        self.failed += other.failed
        self.throughput = other.throughput
        self.layer.update(other.layer)

    def fail(self, why: str) -> None:
        if not self.failed:
            print(f"first failed operation: {why}", file=sys.stderr)
        self.failed += 1

    def closed_loop_throughput(self) -> float:
        """Ops per second of one caller that is never idle."""
        busy = sum(sum(times) for times in self.samples.values())
        return sum(len(times) for times in self.samples.values()) / busy


def same_ciphertext(a, b) -> bool:
    return (len(a.parts) == len(b.parts) and a.scale == b.scale
            and all(np.array_equal(p.residues, q.residues)
                    for p, q in zip(a.parts, b.parts)))


@contextmanager
def measuring(backend, recorder):
    """Install ``backend`` for one pass, behind the span recorder's
    proxies and wrappers when there is one."""
    from repro.fhe.backend import use_backend

    with ExitStack() as stack:
        if recorder is not None:
            backend = stack.enter_context(traced_backend(backend, recorder))
            stack.enter_context(instrument(recorder))
        stack.enter_context(use_backend(backend))
        gc.collect()
        yield


def _timed_call(op, result: Pass, recorder, kind):
    """Run one op, time it, count it; a raising op is a failed op."""
    result.attempted += 1
    with recorder.span(kind, "bench") if recorder else nullcontext():
        start = _clock()
        try:
            out = op()
        except Exception:  # noqa: BLE001 - accounted as a failed op
            result.fail(traceback.format_exc())
            return None
        seconds = _clock() - start
    result.add(kind, seconds, host_slowdown((yardstick(), yardstick())))
    return out


# -- closed-loop op rounds ----------------------------------------------------


class OpsWorkload:
    """Closed loop, one caller: rounds of {hmult, hrot, keyswitch,
    rescale}, op kinds interleaved within a round, on one backend."""

    kinds = ("hmult", "hrot", "keyswitch", "rescale")
    headline = "hmult"
    tolerance = 1e-3

    def __init__(self, backend_name: str, shape: dict, smoke: bool):
        self.backend_name = backend_name
        self.shape = SMOKE_SHAPE if smoke else shape
        self.vpu_lanes = 16 if smoke else 64

    def make_backend(self, name: str):
        from repro.fhe.backend import IntegrityBackend, NumpyBackend, VpuBackend
        from repro.kernels import CompiledBackend

        if name == "compiled":
            return CompiledBackend()
        if name == "numpy":
            return NumpyBackend()
        if name == "detect":
            return IntegrityBackend(CompiledBackend(), "detect")
        return VpuBackend(m=self.vpu_lanes)

    def setup(self, seed: int) -> None:
        from repro.fhe.backend import use_backend
        from repro.fhe.ckks import Ciphertext, CkksContext
        from repro.fhe.params import CkksParams

        self.backend = self.make_backend(self.backend_name)
        with use_backend(self.key_backend()):
            ctx = CkksContext(CkksParams(**self.shape), seed=2025)
            ctx.generate_galois_keys([1])
            rng = np.random.default_rng(seed)
            self.x = rng.uniform(-1.0, 1.0, ctx.params.slots)
            self.y = rng.uniform(-1.0, 1.0, ctx.params.slots)
            a, b = ctx.encrypt(self.x), ctx.encrypt(self.y)
            # The unrelinearized 3-part product a keyswitch folds back.
            tensor = Ciphertext(
                [a.parts[0] * b.parts[0],
                 a.parts[0] * b.parts[1] + a.parts[1] * b.parts[0],
                 a.parts[1] * b.parts[1]], a.scale * b.scale)
            product = ctx.multiply(a, b, rescale_after=False)
        self.ctx = ctx
        self.ops = {
            "hmult": lambda: ctx.multiply(a, b),
            "hrot": lambda: ctx.rotate(a, 1),
            "keyswitch": lambda: ctx.relinearize(tensor),
            "rescale": lambda: ctx.rescale(product),
        }
        with use_backend(self.backend):
            # First round: the cold dispatch of every kernel shape.
            self.reference = {kind: op() for kind, op in self.ops.items()}

    def key_backend(self):
        """The backend that makes keys and inputs: the measured one."""
        return self.backend

    def expected(self) -> dict[str, np.ndarray]:
        xy = self.x * self.y
        return {"hmult": xy, "hrot": np.roll(self.x, -1),
                "keyswitch": xy, "rescale": xy}

    def check(self) -> tuple[bool, float]:
        """Decrypted references against the plaintext, and every op
        bit-identical on a second backend."""
        from repro.fhe.backend import use_backend

        worst = 0.0
        for kind, want in self.expected().items():
            got = self.ctx.decrypt(self.reference[kind]).real
            worst = max(worst, float(np.abs(got - want).max()))
        other = "compiled" if self.backend_name == "numpy" else "numpy"
        with use_backend(self.make_backend(other)):
            identical = all(same_ciphertext(op(), self.reference[kind])
                            for kind, op in self.ops.items())
        if not identical:
            print(f"residues differ between {self.backend_name} and {other}",
                  file=sys.stderr)
        return identical and worst <= self.tolerance, worst

    def run(self, seconds: float, recorder: Recorder | None = None) -> Pass:
        result = Pass(self.kinds)
        counter = self.op_counter()
        counts: dict[str, int] = {}
        with measuring(self.backend, recorder):
            self.before_pass()
            mark = counter[1]() if counter else 0
            deadline = _clock() + seconds
            rounds = 0
            while not rounds or _clock() < deadline:
                for kind, op in self.ops.items():
                    out = _timed_call(op, result, recorder, kind)
                    if out is not None and not same_ciphertext(
                            out, self.reference[kind]):
                        result.fail(f"{kind} output changed between rounds")
                    if counter:
                        now = counter[1]()
                        count, mark = now - mark, now
                        if counts.setdefault(kind, count) != count:
                            result.fail(f"{kind}: {counter[0]} read {count}, "
                                        f"{counts[kind]} the round before")
                rounds += 1
        result.throughput = result.closed_loop_throughput()
        if counter:
            for kind, count in counts.items():
                result.layer[f"{counter[0]}.{kind}"] = count
        self.after_pass(result, rounds)
        return result

    def op_counter(self):
        """``(metric prefix, reader)`` of a counter the backend keeps,
        read around every op; what an op adds to it is exact and must
        repeat from round to round."""
        if self.backend_name == "detect":
            return ("fault.integrity_checks",
                    lambda: self.backend.integrity_counters()["checks"])
        return None

    def before_pass(self) -> None:
        pass

    def after_pass(self, result: Pass, rounds: int) -> None:
        if self.backend_name == "detect":
            result.layer["fault.integrity_mismatches"] = (
                self.backend.integrity_counters()["mismatches"])


class VpuWorkload(OpsWorkload):
    """The op rounds on the behavioral VPU model, with simulated cycles
    read from ``VpuBackend.vpu.stats`` around every op."""

    def key_backend(self):
        # Keys and ciphertexts are backend-independent data; making them
        # on the model would triple the set-up without exercising
        # anything the op rounds do not.
        from repro.fhe.backend import NumpyBackend

        return NumpyBackend()

    def op_counter(self):
        return "core.cycles", lambda: self.backend.vpu.stats.cycles

    def before_pass(self) -> None:
        stats = self.backend.vpu.stats
        self._start = (stats.cycles, stats.multiplier_busy, stats.adder_busy,
                       stats.network_passes, stats.loads, stats.stores,
                       dict(stats.by_type))
        self._cache = (self.backend.program_cache_hits,
                       self.backend.program_cache_misses)

    def after_pass(self, result: Pass, rounds: int) -> None:
        stats = self.backend.vpu.stats
        cycles0, mult0, add0, net0, loads0, stores0, types0 = self._start
        cycles = stats.cycles - cycles0
        layer = result.layer
        layer["core.cycles_per_round"] = cycles / rounds
        layer["core.multiplier_busy_share"] = (
            stats.multiplier_busy - mult0) / cycles
        layer["core.adder_busy_share"] = (stats.adder_busy - add0) / cycles
        layer["core.network_passes_per_round"] = (
            stats.network_passes - net0) / rounds
        layer["core.loads_per_round"] = (stats.loads - loads0) / rounds
        layer["core.stores_per_round"] = (stats.stores - stores0) / rounds
        for name, count in stats.by_type.items():
            layer[f"core.instr.{name}"] = (count - types0.get(name, 0)) / rounds
        busy = sum(sum(times) for times in result.raw.values())
        layer["core.sim_cycles_per_host_s"] = cycles / busy
        hits = self.backend.program_cache_hits - self._cache[0]
        misses = self.backend.program_cache_misses - self._cache[1]
        layer["backend_vpu.program_cache_hit_ratio"] = hits / (hits + misses)


# -- the bootstrap-shaped program --------------------------------------------


class PipelineWorkload:
    """Closed loop, one caller: matvec (BSGS) -> degree-3 polynomial ->
    matvec on ``CompiledBackend``; one sample per whole program."""

    kinds = ("program",)
    headline = "program"
    coefficients = [0.0, 1.2, 0.0, -0.15]

    def __init__(self, smoke: bool):
        self.shape = SMOKE_PIPELINE_SHAPE if smoke else BENCH_SHAPE
        self.dim = 8 if smoke else 16
        self.tolerance = 2e-2 if smoke else 1e-2

    def setup(self, seed: int) -> None:
        from repro.fhe.backend import use_backend
        from repro.fhe.ckks import CkksContext
        from repro.fhe.linear import required_rotations
        from repro.fhe.params import CkksParams
        from repro.kernels import CompiledBackend

        self.backend = CompiledBackend()
        dim = self.dim
        cos, sin = np.cos(0.7), np.sin(0.7)
        self.forward = np.eye(dim)
        for i in range(0, dim - 1, 2):
            self.forward[i, i], self.forward[i, i + 1] = cos, -sin
            self.forward[i + 1, i], self.forward[i + 1, i + 1] = sin, cos
        self.x = np.random.default_rng(seed).uniform(-0.8, 0.8, dim)
        with use_backend(self.backend):
            ctx = CkksContext(CkksParams(**self.shape), seed=2025)
            ctx.generate_galois_keys(required_rotations(dim, bsgs=True))
            self.ctx = ctx
            self.input = ctx.encrypt(np.tile(self.x, ctx.params.slots // dim))
            self.reference = self.program(None)

    def program(self, recorder):
        from repro.fhe.linear import encrypted_matvec_bsgs
        from repro.fhe.polyeval import evaluate_power_basis

        stages = (
            ("fhe.linear.matvec_bsgs", lambda ct: encrypted_matvec_bsgs(
                self.ctx, ct, self.forward)),
            ("fhe.polyeval.power_basis", lambda ct: evaluate_power_basis(
                self.ctx, ct, self.coefficients)),
            ("fhe.linear.matvec_bsgs", lambda ct: encrypted_matvec_bsgs(
                self.ctx, ct, self.forward.T)),
        )
        ct = self.input
        for name, stage in stages:
            if recorder is None:
                ct = stage(ct)
            else:
                with recorder.span(name, "fhe.program"):
                    ct = stage(ct)
        return ct

    def check(self) -> tuple[bool, float]:
        c = self.coefficients
        y = self.forward @ self.x
        want = self.forward.T @ (c[1] * y + c[3] * y ** 3)
        got = self.ctx.decrypt(self.reference)[:self.dim].real
        worst = float(np.abs(got - want).max())
        return worst <= self.tolerance, worst

    def run(self, seconds: float, recorder: Recorder | None = None) -> Pass:
        result = Pass(self.kinds)
        with measuring(self.backend, recorder):
            deadline = _clock() + seconds
            while not result.attempted or _clock() < deadline:
                out = _timed_call(lambda: self.program(recorder), result,
                                  recorder, "program")
                if out is not None and not same_ciphertext(
                        out, self.reference):
                    result.fail("program output changed between runs")
        result.throughput = result.closed_loop_throughput()
        return result


# -- the whole stack a tenant sees -------------------------------------------


class _Proxy:
    """Forwards to ``inner``; subclasses put spans around some calls,
    each under the root span of the request it belongs to."""

    def __init__(self, inner, recorder: Recorder, roots: dict[int, int]):
        self._inner, self._recorder, self._roots = inner, recorder, roots

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def _span(self, name: str, layer: str, request_id: int):
        return self._recorder.detached(name, layer,
                                       self._roots.get(request_id, -1))


class _ExecutorProxy(_Proxy):
    """Times ``run`` and ``verify`` of the executor the engine drives.
    A request's ops run synchronously at the start of ``run``, so the
    run span is published as the recorder's ambient parent for them."""

    async def run(self, request, level, straggle=1.0):
        with self._span("serve.executor.run", "serve",
                        request.request_id) as index:
            self._recorder.ambient = index
            try:
                return await self._inner.run(request, level,
                                             straggle=straggle)
            finally:
                self._recorder.ambient = -1

    def verify(self, request, value):
        with self._span("serve.executor.verify", "serve", request.request_id):
            return self._inner.verify(request, value)


class _JournalProxy(_Proxy):
    """Times the request journal's two appends."""

    def record_submit(self, request_id, **fields):
        with self._span("recover.journal.record_submit", "recover",
                        request_id):
            return self._inner.record_submit(request_id, **fields)

    def record_resolve(self, request_id, status):
        with self._span("recover.journal.record_resolve", "recover",
                        request_id):
            return self._inner.record_resolve(request_id, status)


class ServeWorkload:
    """``ServeEngine`` over ``CkksOpExecutor`` with a request journal.

    Phase A is an open loop: one arrival every ``1 / rate`` seconds
    whatever the engine is doing, each timed from when it was *due*.
    Phase B is a closed loop: two clients, no think time.  Two tenants,
    the default op mix, 2 s deadlines, two engine workers.
    """

    kinds = ("request",)
    headline = "request"
    rate = 10.0
    open_share = 0.55

    def __init__(self, smoke: bool):
        self.shape = SMOKE_SHAPE if smoke else BENCH_SHAPE
        if smoke:
            self.rate = 60.0

    def setup(self, seed: int) -> None:
        from repro.fhe.backend import use_backend
        from repro.fhe.params import CkksParams
        from repro.kernels import CompiledBackend
        from repro.serve import CkksOpExecutor

        self.seed = seed
        self.backend = CompiledBackend()
        with use_backend(self.backend):
            # The executor draws its plaintexts from the seed and checks
            # every served result against its own golden decryptions.
            self.executor = CkksOpExecutor(CkksParams(**self.shape), seed=seed)

    def check(self) -> tuple[bool, float]:
        """The engine verifies every served value against the
        executor's golden decryptions; here the goldens themselves: the
        three ops that compute ``a * b`` by different routes agree."""
        golden = self.executor.golden
        worst = max(float(np.abs(golden[op] - golden["hmult"]).max())
                    for op in ("keyswitch", "rescale"))
        return worst <= 1e-3, worst

    def _trace(self, seconds: float):
        """Arrivals for both phases.  The seed orders the ops and picks
        the tenants; the op mix is the default one in exact proportion
        and phase A's arrivals are evenly paced.  With Poisson gaps and
        an i.i.d. mix, the median of ~70 requests moves by a third from
        seed to seed (it hops between the per-op latency clusters), far
        more than any change to the program would move it."""
        from repro.serve.requests import OPS
        from repro.serve.trace import TraceConfig, TraceItem

        rng = np.random.default_rng(self.seed)
        weights = TraceConfig().op_weights
        block = [op for op, weight in zip(OPS, weights)
                 for _ in range(round(weight * 20))]
        opened = max(4, int(self.rate * seconds * self.open_share))
        # Enough for phase A plus whatever phase B's closed loop gets
        # through.
        total = opened + int(400 * seconds) + 64
        ops = np.concatenate([rng.permutation(block)
                              for _ in range(total // len(block) + 1)])
        items = [TraceItem(request_id=i, offset=i / self.rate,
                           tenant=f"tenant-{rng.integers(2)}", op=str(ops[i]),
                           timeout=2.0, payload=int(rng.integers(0, 2**31)))
                 for i in range(total)]
        return items[:opened], items[opened:]

    def run(self, seconds: float, recorder: Recorder | None = None) -> Pass:
        result = Pass(self.kinds)
        with measuring(self.backend, recorder):
            asyncio.run(self._drive(seconds, recorder, result))
        return result

    async def _drive(self, seconds, recorder, result: Pass) -> None:
        from repro.recover.journal import RequestJournal
        from repro.serve import ServeConfig, ServeEngine
        from repro.serve.trace import materialize

        open_items, closed_items = self._trace(seconds)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"journal-{self.seed}-{time.time_ns()}.wal"
        journal = RequestJournal(path)
        executor, sink = self.executor, journal
        roots: dict[int, int] = {}
        if recorder is not None:
            executor = _ExecutorProxy(executor, recorder, roots)
            sink = _JournalProxy(journal, recorder, roots)
        engine = ServeEngine(
            executor, ServeConfig(workers=2, queue_limit=64,
                                  attempt_timeout=2.0), journal=sink)

        async def submit(item):
            request = materialize(item)
            if recorder is None:
                return await engine.submit(request)
            with recorder.detached("request", "serve") as root:
                roots[request.request_id] = root
                return await engine.submit(request)

        async def due_request(item, due):
            lag = _clock() - due
            served = await submit(item)
            return served, _clock() - due, lag

        ticks: list[float] = []

        async def tick():
            # Requests overlap, so none owns the moment after it: the
            # yardstick shares the event loop instead, 2 ms of work ten
            # times a second, and one slowdown covers the pass.
            while True:
                ticks.append(yardstick())
                await asyncio.sleep(0.1)

        closed: list = []

        async def client(deadline, supply):
            while True:
                closed.append(await submit(next(supply)))
                if _clock() >= deadline:
                    return

        try:
            async with engine:
                ticker = asyncio.create_task(tick())
                start = _clock()
                tasks = []
                for item in open_items:
                    due = start + item.offset
                    if due > _clock():
                        await asyncio.sleep(due - _clock())
                    tasks.append(asyncio.create_task(due_request(item, due)))
                opened = await asyncio.gather(*tasks)
                supply = iter(closed_items)
                closed_start = _clock()
                deadline = closed_start + seconds * (1.0 - self.open_share)
                await asyncio.gather(client(deadline, supply),
                                     client(deadline, supply))
                closed_s = _clock() - closed_start
                ticker.cancel()
        finally:
            journal.close()
            path.unlink(missing_ok=True)

        served = [s for s, _, _ in opened] + closed
        result.attempted = len(served)
        for s in served:
            if not s.succeeded:
                result.fail(f"request {s.request_id} resolved {s.status} "
                            f"({s.error})")
        slowdown = host_slowdown(ticks)
        for s, latency, _ in opened:
            if s.succeeded:
                result.add("request", latency, slowdown)
        result.throughput = (sum(s.succeeded for s in closed) / closed_s
                             * slowdown)
        self._layer_counts(result, served, opened, engine)

    def _layer_counts(self, result, served, opened, engine):
        layer = result.layer
        done = [s for s in served if s.succeeded]
        latency = sum(s.latency for s in done)
        phases = {phase: sum(s.phases.get(phase, 0) for s in done) / 1e9
                  for phase in ("queue", "dispatch", "compute", "verify")}
        for phase, spent in phases.items():
            layer[f"serve.{phase}_share"] = spent / latency
        # Admission, journal appends and the wake-up of the caller.
        layer["serve.overhead_share"] = 1.0 - sum(phases.values()) / latency
        lags = sorted(lag for _, _, lag in opened)
        layer["serve.generator_lag_p95_gaps"] = (
            lags[int(0.95 * (len(lags) - 1))] * self.rate)
        counters = engine.counters
        layer["serve.retries"] = counters["retries"]
        layer["serve.shed"] = (counters["rejected_rate"]
                               + counters["rejected_capacity"])
        layer["serve.timeouts"] = counters["timeout"]
        layer["serve.degraded"] = counters["degraded"]


WORKLOADS = {
    "ops_compiled": lambda smoke: OpsWorkload("compiled", BENCH_SHAPE, smoke),
    "ops_numpy": lambda smoke: OpsWorkload("numpy", BENCH_SHAPE, smoke),
    "ops_detect": lambda smoke: OpsWorkload("detect", BENCH_SHAPE, smoke),
    "pipeline": PipelineWorkload,
    "vpu_model": lambda smoke: VpuWorkload("vpu", VPU_SHAPE, smoke),
    "serve_ckks": ServeWorkload,
}
