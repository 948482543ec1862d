"""Direct probes of single layers, run in every traced run.

These time calls into one layer's public functions at a fixed shape, so
they read the same whatever workload the process ran: they say what a
layer costs on its own, next to the traced pass that says how much of a
workload's time the layer got.  Iteration counts are fixed; every value
is a median.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from workloads import BENCH_SHAPE, OUT_DIR, SMOKE_SHAPE

_clock = time.perf_counter

# The paper's Tables II and IV (area um^2, power mW), as checked by
# tools/check_tables.py; Table III lives in repro.perf.
_TABLE2 = {
    "f1": (55616.42, 300306.61, 93.50, 842.12),
    "bts": (19405.16, 264095.35, 45.13, 793.75),
    "ark": (9480.50, 254170.69, 46.35, 794.97),
    "sharp": (44453.51, 289143.70, 44.04, 792.66),
    "our": (5913.62, 250603.81, 15.59, 764.21),
}
_TABLE4 = {4: (208.99, 0.59), 8: (509.45, 1.38), 16: (1180.83, 3.13),
           32: (2664.50, 7.02), 64: (5913.62, 15.59),
           128: (12975.47, 34.28), 256: (28226.38, 75.02)}


def _median_s(call, repeats: int) -> float:
    call()
    times = []
    for _ in range(repeats):
        start = _clock()
        call()
        times.append(_clock() - start)
    return statistics.median(times)


def _interleaved_ratio(slow, fast, repeats: int) -> float:
    """Median of ``slow`` over median of ``fast``, alternating the two
    so drift in the host hits both."""
    slow(), fast()
    slow_s, fast_s = [], []
    for _ in range(repeats):
        for call, sink in ((slow, slow_s), (fast, fast_s)):
            start = _clock()
            call()
            sink.append(_clock() - start)
    return statistics.median(slow_s) / statistics.median(fast_s)


def scheme_and_kernels(smoke: bool) -> dict[str, float]:
    """``fhe.ckks`` entry points, the compiled and numpy kernels, the
    integrity and observer overheads on one HMult."""
    from repro.fhe.backend import IntegrityBackend, NumpyBackend, use_backend
    from repro.fhe.ckks import CkksContext
    from repro.fhe.params import CkksParams
    from repro.kernels import CompiledBackend, plan_cache
    from repro.obs import Observer, observe

    out: dict[str, float] = {}
    params = CkksParams(**(SMOKE_SHAPE if smoke else BENCH_SHAPE))
    compiled = CompiledBackend()
    rng = np.random.default_rng(0)
    values = rng.uniform(-1.0, 1.0, params.slots)
    steps = list(range(1, 9))
    with use_backend(compiled):
        ctx = CkksContext(params, seed=2025)
        ctx.generate_galois_keys(steps)
        a, b = ctx.encrypt(values), ctx.encrypt(values[::-1].copy())
        for name, call in (
                ("encode", lambda: ctx.encode(values)),
                ("encrypt", lambda: ctx.encrypt(values)),
                ("decrypt", lambda: ctx.decrypt(a)),
                ("hadd", lambda: ctx.add(a, b)),
                ("multiply_plain", lambda: ctx.multiply_plain(a, values))):
            out[f"fhe.ckks.{name}_p50_ms"] = _median_s(call, 7) * 1e3
        out["fhe.ckks.hoisted_rot_ms_per_rot"] = _median_s(
            lambda: ctx.rotate_hoisted(a, steps), 3) * 1e3 / len(steps)

        def hmult():
            return ctx.multiply(a, b)

        def guarded_hmult():
            with use_backend(guard):
                return ctx.multiply(a, b)

        def observed_hmult():
            with observe(Observer()):
                return ctx.multiply(a, b)

        guard = IntegrityBackend(compiled, "detect")
        out["fault.integrity_detect_ratio.hmult"] = _interleaved_ratio(
            guarded_hmult, hmult, 5)
        out["obs.overhead_ratio.hmult"] = _interleaved_ratio(
            observed_hmult, hmult, 9)

    # The kernels on their own, at the two batch shapes a keyswitch
    # dispatches: one polynomial (L rows) and the digit batch (L*(L+1)).
    limbs = params.levels
    full = params.primes + (params.special_prime,)
    batches = (params.primes, tuple(
        full[j] for i in range(limbs) for j in range(limbs + 1) if j != i))
    for label, backend in (("kernels", compiled),
                           ("backend_numpy", NumpyBackend())):
        spent = {"fwd_ntt": 0.0, "inv_ntt": 0.0}
        rows = 0
        for primes in batches:
            data = np.stack([rng.integers(0, q, params.n, dtype=np.uint64)
                             for q in primes])
            spent["fwd_ntt"] += _median_s(
                lambda: backend.forward_ntt_batch(data, primes), 5)
            spent["inv_ntt"] += _median_s(
                lambda: backend.inverse_ntt_batch(data, primes), 5)
            rows += len(primes)
        for kernel, seconds in spent.items():
            out[f"{label}.{kernel}_us_per_row"] = seconds * 1e6 / rows
        data = np.stack([rng.integers(0, q, params.n, dtype=np.uint64)
                         for q in params.primes])
        out[f"{label}.automorphism_us_per_row"] = _median_s(
            lambda: backend.automorphism_eval_batch(data, 5, params.primes),
            9) * 1e6 / limbs
    digits = np.stack([np.stack([
        rng.integers(0, q, params.n, dtype=np.uint64) for q in full])
        for _ in range(limbs)])
    out["kernels.ks_inner_ms"] = _median_s(
        lambda: compiled.keyswitch_inner_product(digits, digits, digits,
                                                 full), 7) * 1e3
    cache = plan_cache()
    out["kernels.plan_cache_hit_ratio"] = cache.hits / max(
        cache.hits + cache.misses, 1)
    return out


def journal(repeats: int = 40) -> dict[str, float]:
    """One fsynced submit + resolve pair of the serve request journal."""
    from repro.recover.journal import RequestJournal

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"probe-journal-{time.time_ns()}.wal"
    log = RequestJournal(path)
    pairs = []
    try:
        for request_id in range(repeats):
            start = _clock()
            log.record_submit(request_id, tenant="tenant-0", op="hmult",
                              timeout_s=2.0, payload=request_id)
            log.record_resolve(request_id, "ok")
            pairs.append(_clock() - start)
        size = path.stat().st_size
    finally:
        log.close()
        path.unlink(missing_ok=True)
    return {"recover.journal_pair_p50_us": statistics.median(pairs) * 1e6,
            "recover.journal_bytes_per_req": size / repeats}


def vpu_and_accel(smoke: bool) -> dict[str, float]:
    """The VPU model's cold and warm dispatch, the observer's cost on a
    VPU keyswitch, the multi-VPU schedules and the pool."""
    from repro.accel import Accelerator
    from repro.accel.parallel import ParallelVpuPool
    from repro.fhe.backend import VpuBackend, use_backend
    from repro.fhe.ckks import Ciphertext, CkksContext
    from repro.fhe.params import CkksParams, toy_params
    from repro.obs import Observer, observe

    out: dict[str, float] = {}
    lanes, n = (16, 256) if smoke else (64, 1024)
    params = CkksParams(n=n, levels=3, scale_bits=26, prime_bits=28)
    q = params.primes[0]
    rng = np.random.default_rng(0)
    row = rng.integers(0, q, (1, n), dtype=np.uint64)

    backend = VpuBackend(m=lanes)
    start = _clock()
    backend.forward_ntt_batch(row, (q,))
    out["backend_vpu.first_dispatch_s"] = _clock() - start
    cycles = backend.vpu.stats.cycles
    warm = _median_s(lambda: backend.forward_ntt_batch(row, (q,)), 5)
    out["core.host_us_per_instr"] = warm * 1e6 / cycles

    # Observer cost where spans are densest: every VPU instruction
    # stream of a keyswitch.  Keys and inputs are backend-independent
    # data, so they are made on the numpy path and only the keyswitch
    # itself runs on the model, at the toy shape and the lowest level to
    # keep the probe short.
    ctx = CkksContext(toy_params(), seed=2025)
    a = ctx.mod_reduce(ctx.encrypt(rng.uniform(-1.0, 1.0, ctx.params.slots)),
                       0)
    tensor = Ciphertext([a.parts[0] * a.parts[0],
                         a.parts[0] * a.parts[1] + a.parts[1] * a.parts[0],
                         a.parts[1] * a.parts[1]], a.scale * a.scale)

    def keyswitch():
        return ctx.relinearize(tensor)

    def observed_keyswitch():
        with observe(Observer()):
            return ctx.relinearize(tensor)

    with use_backend(VpuBackend(m=64)):
        out["obs.overhead_ratio.vpu_keyswitch"] = _interleaved_ratio(
            observed_keyswitch, keyswitch, 5)

    chip = Accelerator(num_vpus=8, lanes=64)
    level = params.top_level
    out["accel.hmult_makespan_cycles"] = Accelerator.total_makespan(
        chip.schedule_hmult(1024, level))
    out["accel.hrot_makespan_cycles"] = Accelerator.total_makespan(
        chip.schedule_hrot(1024, level))
    pool = ParallelVpuPool(4, m=lanes, q=q)
    limbs = np.tile(row, (4, 1))
    pool.run_ntt_batch(limbs, n)
    start = _clock()
    _, report = pool.run_ntt_batch(limbs, n)
    out["accel.pool_host_s"] = _clock() - start
    out["accel.pool_utilization"] = report.utilization
    return out


def paper_tables() -> dict[str, float]:
    """How far the analytic models sit from the paper's tables: stated
    beside every simulated number, exact, must not grow."""
    from repro import baselines
    from repro.hwmodel import our_network_cost, vpu_cost
    from repro.perf import PAPER_TABLE_III, utilization_report

    def rel(got, want):
        return abs(got - want) / want

    table2 = []
    for name, (net_area, vpu_area, net_power, vpu_power) in _TABLE2.items():
        network = (our_network_cost if name == "our" else getattr(
            baselines, f"{name}_network_cost"))(64)
        unit = vpu_cost(64, network)
        table2 += [rel(network.area_um2, net_area),
                   rel(network.power_mw, net_power),
                   rel(unit.area_um2, vpu_area), rel(unit.power_mw, vpu_power)]
    table4 = []
    for lanes, (area, power) in _TABLE4.items():
        cost = our_network_cost(lanes)
        table4 += [rel(cost.area_um2, area), rel(cost.power_mw, power)]
    table3 = [abs(utilization_report(n).ntt_utilization - paper_ntt) * 100
              for n, (paper_ntt, _) in PAPER_TABLE_III.items()]
    return {"hwmodel.table2_max_rel_err": max(table2),
            "hwmodel.table4_max_rel_err": max(table4),
            "perf.table3_max_abs_err_pp": max(table3)}


def run_all(smoke: bool) -> dict[str, float]:
    out: dict[str, float] = {}
    gc.collect()
    out.update(scheme_and_kernels(smoke))
    out.update(journal())
    out.update(vpu_and_accel(smoke))
    out.update(paper_tables())
    return out
