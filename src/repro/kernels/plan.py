"""Per-shape plans for the compiled fused kernels.

A :class:`CompiledPlan` gathers, for one ``(n, primes)`` batch shape,
every constant the fused C kernels consume: the stacked
contiguous per-limb tables (moduli, Barrett constants, psi folds, flat
stage twiddles, fused unfold scalings, Shoup companions) plus the
analyzer-derived eligibility gates and the reduction schedule they
select — chosen here, once per shape, and nowhere else.  The
per-modulus constants come from :class:`repro.ntt.tables.NttTables` —
hoisted there so every backend shares one computation per ``(n, q)`` —
and a plan only *stacks* them into the row-major layout the kernels
index.

Three process-global caches live here, all reset by
:func:`clear_compiled_caches` (and therefore by the module-level
:func:`repro.fhe.backend.clear_caches`):

* the plan cache itself, with hit/miss counters mirroring the
  ``VpuBackend`` program cache;
* the per-shape workspace pool (the kernels' only scratch memory, so
  steady-state dispatch allocates nothing but the output);
* the automorphism destination tables (int64, contiguous).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.analysis.bounds import (
    centered_lift_lazy_ok,
    checksum_dot_lazy_ok,
    keyswitch_lazy_accumulate_ok,
    ntt_shoup_ok,
    unclamped_dit_ok,
)
from repro.ntt.tables import get_tables


class CompiledPlan:
    """Constant tables, derived gates and the schedule they select for
    one ``(n, primes)`` shape.

    ``lazy_stages_ok`` decides whether the fused kernels may run at
    all: ``n >= 2`` is a power of two and the Shoup plans verify
    (:func:`~repro.analysis.bounds.ntt_shoup_ok`), which holds exactly
    when every prime is below ``2**30``.  Otherwise the plan stays
    table-less, the binding refuses it and the backend falls back to
    numpy.  The other gates are analyzer-derived too and resolve into
    the schedule every kernel of this plan runs, which travels to C
    inside ``plan_t``: ``inv_mode`` (1 lazy Shoup, 2 clamp-free) and
    ``ks_lazy`` (the row-fused keyswitch sums its digit products
    unreduced).  No caller passes a schedule, so none can ask for one
    the plan never proved.

    The two row-fused kernels read the last prime as the special prime
    (``keyswitch_ok``) or the limb being dropped (``drop_top_ok``), each
    gated on its conditional-add lift; the tensor product needs nothing
    more, as a product of two words below ``2**30`` fits uint64.  The
    binding raises, and the backend declines, where a gate is False.
    ``checksum_ok`` gates their optional integrity sums: every row's
    two ABFT dot products fit uint64 unreduced
    (:func:`~repro.analysis.bounds.checksum_dot_lazy_ok` at ``max_x =
    2**32 - 1``; the kernel reports a wider word instead of summing it).
    """

    def __init__(self, n: int, primes: tuple[int, ...]):
        self.n = n
        self.primes = primes
        self.log_n = n.bit_length() - 1
        max_q = max(primes)
        rest = primes[:-1]
        self.lazy_stages_ok = (n >= 2 and not (n & (n - 1))
                               and ntt_shoup_ok(self.log_n, max_q))
        self.keyswitch_ok = (self.lazy_stages_ok and bool(rest)
                             and centered_lift_lazy_ok(max(rest), min(primes)))
        self.drop_top_ok = (self.lazy_stages_ok and bool(rest)
                            and centered_lift_lazy_ok(primes[-1], min(rest)))
        self.checksum_ok = self.lazy_stages_ok and all(
            checksum_dot_lazy_ok(n, (1 << 32) - 1, q) for q in set(primes))
        self.inv_mode = 2 if unclamped_dit_ok(self.log_n, max_q) else 1
        self.ks_lazy = int(keyswitch_lazy_accumulate_ok(len(rest), max_q))
        if not self.lazy_stages_ok:
            return  # ineligible shape: no tables, backend falls back
        tabs = [get_tables(n, q) for q in primes]
        stack = lambda rows: np.ascontiguousarray(np.stack(rows))  # noqa: E731
        self.q = np.array(primes, dtype=np.uint64)
        self.mu = np.array([t.barrett_mu for t in tabs], dtype=np.uint64)
        self.psi = stack([t.psi_powers for t in tabs])
        self.psi_sh = stack([t.psi_shoup for t in tabs])
        self.twf = stack([t.dif_twiddles_flat for t in tabs])
        self.twf_sh = stack([t.dif_twiddles_flat_shoup for t in tabs])
        self.twi = stack([t.dit_twiddles_flat for t in tabs])
        self.twi_sh = stack([t.dit_twiddles_flat_shoup for t in tabs])
        self.unfold = stack([t.psi_inv_ninv for t in tabs])
        self.unfold_sh = stack([t.psi_inv_ninv_shoup for t in tabs])
        self.bitrev = np.ascontiguousarray(tabs[0].bitrev, dtype=np.int64)


class PlanCache:
    """Keyed plan store with hit/miss counters — the compiled backend's
    analogue of the ``VpuBackend`` program cache.  Lookup-and-build is
    lock-protected so overlapping serving tasks build each ``(n,
    primes)`` plan once and the hit/miss counters stay exact under
    concurrency."""

    def __init__(self) -> None:
        self._plans: dict[tuple[int, tuple[int, ...]], CompiledPlan] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def get(self, n: int, primes: tuple[int, ...]) -> CompiledPlan:
        key = (n, primes)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                return plan
            self.misses += 1
            plan = CompiledPlan(n, primes)
            self._plans[key] = plan
            return plan

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        """Drop every plan and zero the counters (fresh cache instance)."""
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0


_PLAN_CACHE = PlanCache()
_WORKSPACES = threading.local()
_DESTINATIONS: dict[tuple[int, int], np.ndarray] = {}
_DESTINATIONS_LOCK = threading.Lock()


def plan_cache() -> PlanCache:
    """The process-global plan cache (shared by every CompiledBackend)."""
    return _PLAN_CACHE


def get_plan(n: int, primes: tuple[int, ...]) -> CompiledPlan:
    """Cached plan lookup for one batch shape."""
    return _PLAN_CACHE.get(n, primes)


def get_workspace(rows: int, n: int) -> np.ndarray:
    """Reusable ``(rows, n)`` uint64 scratch buffer for one dispatch.

    Workspaces are **thread-local**: the plan/destination tables are
    immutable and safely shared, but scratch is written by every
    dispatch, so concurrent same-shape dispatches from the serving
    layer's worker threads each get their own buffer."""
    pool = getattr(_WORKSPACES, "buffers", None)
    if pool is None:
        pool = _WORKSPACES.buffers = {}
    key = (rows, n)
    buf = pool.get(key)
    if buf is None:
        buf = np.empty((rows, n), dtype=np.uint64)
        pool[key] = buf
    return buf


def get_destinations(n: int, galois_k: int) -> np.ndarray:
    """Contiguous int64 destination table of the Galois permutation
    ``X -> X**galois_k`` (slot ``i`` lands at ``dest[i]``)."""
    key = (n, galois_k)
    with _DESTINATIONS_LOCK:
        dest = _DESTINATIONS.get(key)
        if dest is None:
            from repro.automorphism.mapping import galois_eval_permutation

            dest = np.ascontiguousarray(
                galois_eval_permutation(n, galois_k).destinations(),
                dtype=np.int64)
            _DESTINATIONS[key] = dest
    return dest


def clear_compiled_caches() -> None:
    """Reset every compiled-backend cache: plans (constant tables plus
    counters), workspace buffers, and automorphism destination tables.
    Wired into the module-level :func:`repro.fhe.backend.clear_caches`,
    which also zeroes the ``backend.compiled_plan_cache.*`` gauges."""
    _PLAN_CACHE.clear()
    getattr(_WORKSPACES, "buffers", {}).clear()
    with _DESTINATIONS_LOCK:
        _DESTINATIONS.clear()
