"""Per-limb vs limb-batched vs compiled kernel dispatch microbenchmarks.

Times the three kernels the paper's workload analysis is built on — the
negacyclic NTT, the evaluation-domain automorphism, and the full digit
keyswitch — in three dispatch regimes:

* **per-limb** (the seed implementation): one backend call per residue
  row, object-dtype big-int digit reduction, non-fused accumulation;
* **batched** (the numpy engine): the whole ``(L, n)`` residue matrix
  per dispatch, broadcast reduction, fused multiply-accumulate;
* **compiled** (:mod:`repro.kernels`): the whole transform / keyswitch
  inner loop as a single JIT-compiled, allocation-free kernel call.

A last row times the whole keyswitch on the compiled backend both ways:
**fused** (the row-fused ``keyswitch_apply`` slot, one kernel call) and
**phased** (``decompose_digits`` + ``accumulate_keyswitch``, the same
kernels with Python between them) — and then the same keyswitch under
``IntegrityBackend(compiled, "detect")``: **checked** (the row-fused
slot taking its own ABFT sums) against **unchecked** (the bare slot)
and against the **phased checked** path every checking policy took
before, so the guard's cost relative to what it guards is a committed
number (``keyswitch_checked.guard_ratio``).  The ``drop_top_limb`` row
does the same for the ModDown / rescale division: the compiled slot
against the phased division on the same batch kernels — both one
inverse and ``R - 1`` forward row NTTs with the subtraction in the
evaluation domain, so the slot saves only the glue between them — and
checked against unchecked.  The ``keyswitch_hoisted`` row rotates one
ciphertext ``K`` times: plain rotations, ``rotate_hoisted`` phase by
phase, and ``rotate_hoisted`` through the ``keyswitch_apply`` slot with
``K`` key blocks (each digit
row transformed once and accumulated into all ``K`` rotations in one
kernel call), with what a rotation after the first costs and the slot's
cost under ``detect``.

Outputs are checked bit-for-bit across all regimes (and, for the
keyswitch, between the numpy, compiled and VPU backends) before any
number is recorded.  Results land in machine-readable
``BENCH_kernels.json`` at the repository root so future PRs have a perf
trajectory; the compiled keyswitch ``speedup_compiled`` on
``keyswitch_small_params`` is the >= 10x acceptance gate.

Run:  PYTHONPATH=src python benchmarks/bench_kernel_batching.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.arith.primes import find_ntt_primes
from repro.automorphism.mapping import galois_eval_permutation
from repro.fhe.backend import (
    IntegrityBackend,
    NumpyBackend,
    VpuBackend,
    use_backend,
)
from repro.fhe.ckks import CkksContext
from repro.fhe.keyswitch import (
    KeySwitchKey,
    accumulate_keyswitch,
    apply_keyswitch,
    decompose_digits,
    mod_down,
)
from repro.fhe.params import CkksParams, small_params
from repro.fhe.polynomial import RnsPoly
from repro.fhe.rns import get_basis
from repro.kernels import CompiledBackend
from repro.ntt.tables import get_tables
from repro.obs.export import host_envelope

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_kernels.json"


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _best_of_group(fns, repeats: int) -> list[float]:
    """Min-of-N timing with all candidates interleaved per round, so
    background load hits every measurement window instead of skewing
    whichever candidate happened to run during a spike."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# Seed (pre-batching) reference implementations, replicated from the seed
# commit so the perf trajectory keeps measuring against the same baseline
# even as the live kernels improve.  The seed transform rebuilt the stage
# twiddle gather on every call and reduced every butterfly with a true
# ``%``; the seed negacyclic wrapper dispatched one transform per limb.
# ---------------------------------------------------------------------------


def _seed_vec_ntt_dif(x: np.ndarray, tables) -> np.ndarray:
    n, q = tables.n, np.uint64(tables.q)
    a = (np.asarray(x, dtype=np.uint64) % q).reshape(-1, n).copy()
    length = n // 2
    while length >= 1:
        step = n // (2 * length)
        tw = tables.omega_powers[(np.arange(length) * step) % n]
        blocks = a.reshape(a.shape[0], -1, 2 * length)
        u = blocks[:, :, :length]
        v = blocks[:, :, length:]
        total = u + v
        diff = (u + q) - v
        blocks[:, :, :length] = total % q
        blocks[:, :, length:] = (diff % q) * tw % q
        length //= 2
    return a.reshape(x.shape)


def _seed_vec_intt_dit(x: np.ndarray, tables) -> np.ndarray:
    n, q = tables.n, np.uint64(tables.q)
    a = (np.asarray(x, dtype=np.uint64) % q).reshape(-1, n).copy()
    length = 1
    while length < n:
        step = n // (2 * length)
        tw = tables.omega_inv_powers[(np.arange(length) * step) % n]
        blocks = a.reshape(a.shape[0], -1, 2 * length)
        u = blocks[:, :, :length].copy()
        v = blocks[:, :, length:] * tw % q
        blocks[:, :, :length] = (u + v) % q
        blocks[:, :, length:] = ((u + q) - v) % q
        length *= 2
    a = a * np.uint64(tables.n_inv) % q
    return a.reshape(x.shape)


def seed_forward_ntt_rows(backend, rows: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
    out = np.empty_like(rows)
    for i, q in enumerate(primes):
        t = get_tables(rows.shape[1], q)
        x = rows[i] % np.uint64(q) * t.psi_powers % np.uint64(q)
        out[i][t.bitrev] = _seed_vec_ntt_dif(x, t)
    return out


def seed_inverse_ntt_rows(backend, rows: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
    out = np.empty_like(rows)
    for i, q in enumerate(primes):
        t = get_tables(rows.shape[1], q)
        x = _seed_vec_intt_dit(rows[i][t.bitrev], t)
        out[i] = x * t.psi_inv_powers % np.uint64(q)
    return out


def seed_automorphism_rows(rows: np.ndarray, galois_k: int) -> np.ndarray:
    perm = galois_eval_permutation(rows.shape[1], galois_k)
    out = np.empty_like(rows)
    for i in range(rows.shape[0]):
        out[i] = perm.apply(rows[i])
    return out


def seed_apply_keyswitch(x: RnsPoly, ksk: KeySwitchKey,
                         params: CkksParams) -> tuple[RnsPoly, RnsPoly]:
    """The seed keyswitch: object-dtype digit reduction, one NTT call per
    residue row, per-limb multiply loops, non-fused accumulation."""
    backend = NumpyBackend()
    coeff_rows = seed_inverse_ntt_rows(backend, x.residues, x.primes)
    target = x.primes + (params.special_prime,)
    digits = []
    for i, q_i in enumerate(x.primes):
        row = coeff_rows[i].astype(np.int64)
        lifted = np.where(row > q_i // 2, row - q_i, row).astype(object)
        rows = np.stack([(lifted % q).astype(np.uint64) for q in target])
        digits.append(RnsPoly(seed_forward_ntt_rows(backend, rows, target),
                              target, is_eval=True))

    def mul(a: RnsPoly, b_rows: np.ndarray) -> np.ndarray:
        out = np.empty_like(a.residues)
        for j, q in enumerate(target):
            out[j] = a.residues[j] * b_rows[j] % np.uint64(q)
        return out

    def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty_like(a)
        for j, q in enumerate(target):
            out[j] = (a[j] + b[j]) % np.uint64(q)
        return out

    keep = list(range(x.num_limbs)) + [params.levels]
    t0 = t1 = None
    for i, digit in enumerate(digits):
        b_i, a_i = ksk.block[i][:, keep]
        tb = mul(digit, b_i)
        ta = mul(digit, a_i)
        t0 = tb if t0 is None else add(t0, tb)
        t1 = ta if t1 is None else add(t1, ta)
    return (RnsPoly(t0, target, is_eval=True),
            RnsPoly(t1, target, is_eval=True))


# ---------------------------------------------------------------------------
# Benchmark sections
# ---------------------------------------------------------------------------


def bench_ntt(n: int, levels: int, repeats: int,
              compiled: CompiledBackend | None) -> dict:
    primes = tuple(find_ntt_primes(2 * n, 29, levels))
    rng = np.random.default_rng(n)
    rows = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes])
    backend = NumpyBackend()
    # Warm every table/plan cache before timing.
    per_limb = seed_forward_ntt_rows(backend, rows, primes)
    batched = backend.forward_ntt_batch(rows, primes)
    np.testing.assert_array_equal(per_limb, batched)
    result = {"n": n, "limbs": levels, "bit_identical": True}
    fns = [lambda: seed_forward_ntt_rows(backend, rows, primes),
           lambda: backend.forward_ntt_batch(rows, primes)]
    if compiled is not None:
        np.testing.assert_array_equal(
            compiled.forward_ntt_batch(rows, primes), batched)
        fns.append(lambda: compiled.forward_ntt_batch(rows, primes))
    times = _best_of_group(fns, repeats)
    result.update({"per_limb_s": times[0], "batched_s": times[1],
                   "speedup": times[0] / times[1]})
    if compiled is not None:
        result.update({"compiled_s": times[2],
                       "speedup_compiled": times[0] / times[2]})
    return result


def bench_automorphism(n: int, levels: int, repeats: int,
                       compiled: CompiledBackend | None) -> dict:
    primes = tuple(find_ntt_primes(2 * n, 29, levels))
    rng = np.random.default_rng(n + 1)
    rows = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes])
    backend = NumpyBackend()
    galois_k = 5
    per_limb = seed_automorphism_rows(rows, galois_k)
    batched = backend.automorphism_eval_batch(rows, galois_k, primes)
    np.testing.assert_array_equal(per_limb, batched)
    result = {"n": n, "limbs": levels, "bit_identical": True}
    fns = [lambda: seed_automorphism_rows(rows, galois_k),
           lambda: backend.automorphism_eval_batch(rows, galois_k, primes)]
    if compiled is not None:
        np.testing.assert_array_equal(
            compiled.automorphism_eval_batch(rows, galois_k, primes), batched)
        fns.append(
            lambda: compiled.automorphism_eval_batch(rows, galois_k, primes))
    times = _best_of_group(fns, repeats)
    result.update({"per_limb_s": times[0], "batched_s": times[1],
                   "speedup": times[0] / times[1]})
    if compiled is not None:
        result.update({"compiled_s": times[2],
                       "speedup_compiled": times[0] / times[2]})
    return result


def bench_keyswitch(repeats: int, compiled: CompiledBackend | None,
                    check_vpu: bool = True) -> dict:
    """Full digit keyswitch on ``small_params`` (the acceptance gate)."""
    params = small_params()
    ctx = CkksContext(params, seed=42)
    rng = np.random.default_rng(7)
    x = RnsPoly(
        np.stack([rng.integers(0, q, params.n, dtype=np.uint64)
                  for q in params.primes]),
        params.primes, is_eval=True)

    seed_t0, seed_t1 = seed_apply_keyswitch(x, ctx.relin_key, params)
    new_t0, new_t1 = apply_keyswitch(x, ctx.relin_key, params)
    np.testing.assert_array_equal(seed_t0.residues, new_t0.residues)
    np.testing.assert_array_equal(seed_t1.residues, new_t1.residues)

    def compiled_keyswitch():
        with use_backend(compiled):
            return apply_keyswitch(x, ctx.relin_key, params)

    backends_identical = None
    if check_vpu:
        vpu = VpuBackend(m=16)
        with use_backend(vpu):
            vpu_t0, vpu_t1 = apply_keyswitch(x, ctx.relin_key, params)
        np.testing.assert_array_equal(new_t0.residues, vpu_t0.residues)
        np.testing.assert_array_equal(new_t1.residues, vpu_t1.residues)
        backends_identical = True
    if compiled is not None:
        c_t0, c_t1 = compiled_keyswitch()
        np.testing.assert_array_equal(new_t0.residues, c_t0.residues)
        np.testing.assert_array_equal(new_t1.residues, c_t1.residues)
        if backends_identical is not False:
            backends_identical = True

    fns = [lambda: seed_apply_keyswitch(x, ctx.relin_key, params),
           lambda: apply_keyswitch(x, ctx.relin_key, params)]
    if compiled is not None:
        fns.append(compiled_keyswitch)
    times = _best_of_group(fns, repeats)
    result = {"params": "small_params", "n": params.n, "limbs": params.levels,
              "seed_per_limb_s": times[0], "batched_s": times[1],
              "speedup": times[0] / times[1], "bit_identical": True,
              "backends_bit_identical": backends_identical}
    if compiled is not None:
        result.update({"compiled_s": times[2],
                       "speedup_compiled": times[0] / times[2]})
    return result


def bench_keyswitch_fused(n: int, levels: int, repeats: int,
                          compiled: CompiledBackend) -> tuple[dict, dict]:
    """The whole keyswitch on the compiled backend, row-fused slot vs
    phase by phase, at an ``ops_compiled``-like shape (30-bit primes);
    then checked (``detect``) vs unchecked, fused and phased.  Returns
    the ``keyswitch_fused`` and ``keyswitch_checked`` rows."""
    params = CkksParams(n=n, levels=levels, scale_bits=29, prime_bits=30)
    with use_backend(compiled):
        ksk = CkksContext(params, seed=42).relin_key
    rng = np.random.default_rng(11)
    x = RnsPoly(
        np.stack([rng.integers(0, q, n, dtype=np.uint64)
                  for q in params.primes]),
        params.primes, is_eval=True)
    keep = list(range(levels + 1))
    target = params.primes + (params.special_prime,)
    guard = IntegrityBackend(compiled, "detect")

    def fused(backend=compiled):
        with use_backend(backend):
            return apply_keyswitch(x, ksk, params)

    def phased(backend=compiled):
        with use_backend(backend):
            return accumulate_keyswitch(decompose_digits(x, params), ksk,
                                        keep, target)

    def checked():
        return fused(guard)

    def phased_checked():
        return phased(guard)

    golden = apply_keyswitch(x, ksk, params)  # NumpyBackend, the default
    for ours in (fused(), phased(), checked(), phased_checked()):
        for part, want in zip(ours, golden):
            np.testing.assert_array_equal(part.residues, want.residues)
    # One kernel call on the now warm backend: the slot ran, so "fused"
    # and "checked" below do not time a declined slot's fall-through.
    for call in (fused, checked):
        before = compiled.kernel_invocations
        call()
        if compiled.kernel_invocations - before != 1:
            raise RuntimeError("keyswitch_apply declined at the bench shape")
    before = guard.checker.checks
    checked()
    checks = guard.checker.checks - before
    if guard.checker.mismatches:
        raise RuntimeError("integrity mismatch on a fault-free keyswitch")
    fused_s, phased_s, checked_s, phased_checked_s = _best_of_group(
        [fused, phased, checked, phased_checked], repeats)
    shape = {"n": n, "limbs": levels, "bit_identical": True}
    return ({**shape, "fused_s": fused_s, "phased_s": phased_s,
             "speedup_fused": phased_s / fused_s},
            {**shape, "policy": "detect", "checks": checks,
             "unchecked_s": fused_s, "checked_s": checked_s,
             "phased_checked_s": phased_checked_s,
             # The guard's cost as a share of what it guards.
             "guard_ratio": checked_s / fused_s - 1.0,
             "speedup_checked": phased_checked_s / checked_s})


class _BatchKernelsOnly:
    """A backend's three batch kernels and none of its fused slots: what
    the phased paths run on."""

    def __init__(self, backend):
        self.name = backend.name
        self.forward_ntt_batch = backend.forward_ntt_batch
        self.inverse_ntt_batch = backend.inverse_ntt_batch
        self.automorphism_eval_batch = backend.automorphism_eval_batch


def bench_drop_top_limb(n: int, levels: int, repeats: int,
                        compiled: CompiledBackend) -> dict:
    """The special-prime ModDown of ``R = levels + 1`` limbs on the
    compiled backend: the ``drop_top_limb`` slot vs the phased division
    on the same batch kernels, and the slot under ``detect``."""
    params = CkksParams(n=n, levels=levels, scale_bits=29, prime_bits=30)
    basis = get_basis(params.primes, params.special_prime)
    primes = params.primes + (params.special_prime,)
    rng = np.random.default_rng(12)
    t = RnsPoly(
        np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes]),
        primes, is_eval=True)
    guard = IntegrityBackend(compiled, "detect")

    def drop(backend):
        with use_backend(backend):
            return mod_down(t, basis)

    def fused():
        return drop(compiled)

    def phased():
        return drop(_BatchKernelsOnly(compiled))

    def checked():
        return drop(guard)

    golden = mod_down(t, basis)  # NumpyBackend, the default
    for ours in (fused(), phased(), checked()):
        np.testing.assert_array_equal(ours.residues, golden.residues)
    for call in (fused, checked):
        before = compiled.kernel_invocations
        call()
        if compiled.kernel_invocations - before != 1:
            raise RuntimeError("drop_top_limb declined at the bench shape")
    if guard.checker.mismatches:
        raise RuntimeError("integrity mismatch on a fault-free ModDown")
    # The kernel reports one pair of sums per row NTT it ran.
    check = guard.checker.fused_check(n, primes)
    compiled.drop_top_limb(t.residues, primes, basis.special_inv_mod_chain,
                           check=check)
    fused_s, phased_s, checked_s = _best_of_group(
        [fused, phased, checked], repeats)
    return {"n": n, "limbs": len(primes), "bit_identical": True,
            "row_ntts": len(check.sums),
            "fused_s": fused_s, "phased_s": phased_s,
            "speedup_fused": phased_s / fused_s,
            "policy": "detect", "checked_s": checked_s,
            "guard_ratio": checked_s / fused_s - 1.0}


class _WithoutHoistedSlot:
    """A backend with its ``keyswitch_apply`` slot withheld: hoisted
    rotations then run phase by phase (``decompose_digits``, a permuted
    stack per rotation, ``keyswitch_inner_product``) — the phased
    baseline the slot's ``K``-key call is timed against."""

    keyswitch_apply = None

    def __init__(self, backend):
        self._backend = backend

    def __getattr__(self, attr):
        return getattr(self._backend, attr)


def bench_keyswitch_hoisted(n: int, levels: int, count: int, repeats: int,
                            compiled: CompiledBackend) -> dict:
    """``count`` rotations of one top-level ciphertext on the compiled
    backend three ways — plain rotations, ``rotate_hoisted`` phase by
    phase, ``rotate_hoisted`` through the ``keyswitch_apply`` slot —
    and the slot under ``detect``.  ``ms_rotation_2_to_K`` is what a
    rotation after the first costs: the slot's time for ``count`` steps
    less its time for one, per extra step."""
    params = CkksParams(n=n, levels=levels, scale_bits=29, prime_bits=30)
    steps = list(range(1, count + 1))
    with use_backend(compiled):
        ctx = CkksContext(params, seed=43)
        ctx.generate_galois_keys(steps)
        ct = ctx.encrypt(np.linspace(-1, 1, params.slots))
    guard = IntegrityBackend(compiled, "detect")

    def on(backend, some=steps):
        with use_backend(backend):
            return ctx.rotate_hoisted(ct, some)

    def plain():
        with use_backend(compiled):
            return [ctx.rotate(ct, s) for s in steps]

    candidates = [plain, lambda: on(_WithoutHoistedSlot(compiled)),
                  lambda: on(compiled), lambda: on(guard),
                  lambda: on(compiled, steps[:1])]
    with use_backend(NumpyBackend()):
        golden = [ctx.rotate(ct, s) for s in steps]
    for ours in [call() for call in candidates[:4]]:
        for rotated, want in zip(ours, golden):
            for part, expected in zip(rotated.parts, want.parts):
                np.testing.assert_array_equal(part.residues,
                                              expected.residues)
    before = compiled.kernel_invocations, guard.checker.checks
    on(guard)
    # The slot, two ModDowns and the c0 permutation per rotation.
    if compiled.kernel_invocations - before[0] != 1 + 3 * count:
        raise RuntimeError("keyswitch_apply declined K rotations at the "
                           "bench shape")
    checks = guard.checker.checks - before[1]
    if guard.checker.mismatches:
        raise RuntimeError("integrity mismatch on fault-free rotations")
    plain_s, phased_s, slot_s, checked_s, one_s = _best_of_group(
        candidates, repeats)
    per_rotation = 1e3 / count
    return {"n": n, "limbs": levels, "rotations": count,
            "bit_identical": True,
            "plain_ms_per_rotation": plain_s * per_rotation,
            "phased_ms_per_rotation": phased_s * per_rotation,
            "slot_ms_per_rotation": slot_s * per_rotation,
            "ms_rotation_2_to_K": (slot_s - one_s) * 1e3 / (count - 1),
            "speedup_hoisted": plain_s / slot_s,
            "policy": "detect",
            "checks": checks,
            "checked_ms_per_rotation": checked_s * per_rotation,
            "guard_ratio": checked_s / slot_s - 1.0}


def bench_vpu_program_cache(n: int = 1024, levels: int = 3) -> dict:
    """One program per kernel shape on the VPU: compiled, lowered and
    scheduled once, bound to each prime by a gather, and replayed on
    every limb of a batch in one lock-step pass — the dispatch engine's
    other half.  Reports wall-clock for the first
    (compiling and binding) batch vs a cached batch, plus the
    compile-invocation reduction (every limb of every batch over one
    compilation)."""
    primes = tuple(find_ntt_primes(2 * n, 29, levels))
    rng = np.random.default_rng(3)
    rows = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes])
    backend = VpuBackend(m=16)
    t0 = time.perf_counter()
    backend.forward_ntt_batch(rows, primes)
    first = time.perf_counter() - t0
    compiles_after_first = backend.program_compilations
    t0 = time.perf_counter()
    backend.forward_ntt_batch(rows, primes)
    cached = time.perf_counter() - t0
    repeats = 6
    for _ in range(repeats - 2):
        backend.forward_ntt_batch(rows, primes)
    return {"n": n, "limbs": levels, "first_dispatch_s": first,
            "cached_dispatch_s": cached,
            "program_compilations": backend.program_compilations,
            "kernel_invocations": backend.kernel_invocations,
            "compile_reduction":
                backend.kernel_invocations / backend.program_compilations,
            "cache_hit_all_repeats":
                backend.program_compilations == compiles_after_first}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: n=1024 only, 2 repeats, no VPU")
    parser.add_argument("--out", type=Path, default=OUT_PATH,
                        help="artifact path (default BENCH_kernels.json at "
                             "the repo root); the regression sentinel points "
                             "this at a scratch file")
    args = parser.parse_args()
    out_path = args.out

    repeats = 2 if args.quick else 9
    # Larger rings get the deeper limb chains a real modulus ladder
    # carries at that size.
    sizes = {1024: 4} if args.quick else {1024: 4, 4096: 4, 8192: 8,
                                          16384: 8}
    compiled = CompiledBackend()
    if compiled.provider_name is None:
        print("[compiled] no compiled provider available "
              "(needs a C compiler); skipping compiled columns")
        compiled = None

    results = host_envelope("kernel_batching")
    # The clone of kernels.c's row kernels the compiled columns ran.
    results["host"]["kernel_isa"] = (
        None if compiled is None else compiled.kernel_isa)
    results.update({
        "quick": args.quick,
        "compiled_provider":
            None if compiled is None else compiled.provider_name,
        # The compiled columns depend on it: with a thread on every
        # core of a shared host the kernels' barriers stall.
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ntt": {}, "automorphism": {},
    })
    for n, levels in sizes.items():
        print(f"[ntt] n={n} L={levels} ...")
        results["ntt"][str(n)] = bench_ntt(n, levels, repeats, compiled)
        print(f"[automorphism] n={n} L={levels} ...")
        results["automorphism"][str(n)] = bench_automorphism(
            n, levels, repeats, compiled)

    print("[keyswitch] small_params ...")
    results["keyswitch_small_params"] = bench_keyswitch(
        repeats, compiled, check_vpu=not args.quick)
    if compiled is not None:
        print("[keyswitch] fused vs phased on the compiled backend ...")
        results["keyswitch_fused"], results["keyswitch_checked"] = \
            bench_keyswitch_fused(
                *((1024, 4) if args.quick else (8192, 8)), repeats, compiled)
        print("[drop_top_limb] fused vs phased on the compiled backend ...")
        results["drop_top_limb"] = bench_drop_top_limb(
            *((1024, 4) if args.quick else (8192, 8)), repeats, compiled)
        print("[keyswitch] hoisted rotations on the compiled backend ...")
        results["keyswitch_hoisted"] = bench_keyswitch_hoisted(
            *((1024, 4) if args.quick else (8192, 8)), 8, repeats, compiled)
    if not args.quick:
        print("[vpu] program cache ...")
        results["vpu_program_cache"] = bench_vpu_program_cache()

    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {out_path}")
    def _compiled_cols(r: dict) -> str:
        if "compiled_s" not in r:
            return ""
        return (f"  compiled {r['compiled_s']*1e3:8.3f} ms"
                f" ({r['speedup_compiled']:5.2f}x)")

    for section in ("ntt", "automorphism"):
        for n, r in results[section].items():
            print(f"  {section:13s} n={n}: per-limb {r['per_limb_s']*1e3:8.3f} ms"
                  f"  batched {r['batched_s']*1e3:8.3f} ms"
                  f"  speedup {r['speedup']:5.2f}x" + _compiled_cols(r))
    ks = results["keyswitch_small_params"]
    print(f"  keyswitch     small_params: seed {ks['seed_per_limb_s']*1e3:8.3f} ms"
          f"  batched {ks['batched_s']*1e3:8.3f} ms"
          f"  speedup {ks['speedup']:5.2f}x" + _compiled_cols(ks))
    if "keyswitch_fused" in results:
        kf = results["keyswitch_fused"]
        print(f"  keyswitch     n={kf['n']} L={kf['limbs']} compiled:"
              f" phased {kf['phased_s']*1e3:8.3f} ms"
              f"  fused {kf['fused_s']*1e3:8.3f} ms"
              f"  speedup {kf['speedup_fused']:5.2f}x")
        kc = results["keyswitch_checked"]
        print(f"  keyswitch     n={kc['n']} L={kc['limbs']} detect:  "
              f" phased {kc['phased_checked_s']*1e3:8.3f} ms"
              f"  fused {kc['checked_s']*1e3:8.3f} ms"
              f"  speedup {kc['speedup_checked']:5.2f}x"
              f"  guard {kc['guard_ratio']*100:5.1f} % of the unchecked"
              f" {kc['unchecked_s']*1e3:.3f} ms")
        dt = results["drop_top_limb"]
        print(f"  drop_top_limb n={dt['n']} R={dt['limbs']} compiled:"
              f" phased {dt['phased_s']*1e3:8.3f} ms"
              f"  fused {dt['fused_s']*1e3:8.3f} ms"
              f" ({dt['row_ntts']} row NTTs each)"
              f"  speedup {dt['speedup_fused']:5.2f}x"
              f"  guard {dt['guard_ratio']*100:5.1f} %")
        kh = results["keyswitch_hoisted"]
        print(f"  hoisted rot   n={kh['n']} L={kh['limbs']}"
              f" K={kh['rotations']}, ms per rotation:"
              f" plain {kh['plain_ms_per_rotation']:6.2f}"
              f"  phased {kh['phased_ms_per_rotation']:6.2f}"
              f"  slot {kh['slot_ms_per_rotation']:6.2f}"
              f" (2..K {kh['ms_rotation_2_to_K']:5.2f})"
              f"  speedup {kh['speedup_hoisted']:5.2f}x"
              f"  guard {kh['guard_ratio']*100:5.1f} %")
    if "vpu_program_cache" in results:
        vp = results["vpu_program_cache"]
        print(f"  vpu cache     n={vp['n']}: {vp['program_compilations']} compiles"
              f" for {vp['kernel_invocations']} kernel invocations"
              f" ({vp['compile_reduction']:.1f}x reduction)")


if __name__ == "__main__":
    main()
