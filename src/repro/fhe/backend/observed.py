"""Observation of kernel backends, as one wrapper over the protocol.

The backends keep plain-int counters and know nothing of
:mod:`repro.obs`.  While an obs hook is installed, :func:`observed` —
applied wherever a backend is handed out — puts an
:class:`ObservedBackend` in front, which around every kernel call opens
a ``<backend name>.<span>`` span and, in ``finally``, adds the growth
of the backend's counters over the call to the registry and sets the
cache gauges — a kernel that raises still closes its span and mirrors
its counters.  The tables below name every span, counter and gauge;
counter growth is exact as long as calls on one backend do not overlap.

A row-fused kernel runs several keyswitch phases in one call.  It is
handed a tick array in which it accumulates the time it spent in each,
and the wrapper divides the call's measured wall time in those
proportions into synthetic phase spans (:data:`_PHASES`), so a trace
names the phases whichever path computed them — the integrity sums of
a checked call among them, as ``keyswitch.check``: the guard's cost is
a line of its own.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs

#: Observed method -> (span suffix, kernel kind).
_KERNELS = {
    "forward_ntt_batch": ("batch.ntt", "ntt"),
    "inverse_ntt_batch": ("batch.intt", "intt"),
    "automorphism_eval_batch": ("batch.auto", "auto"),
    "keyswitch_inner_product": ("keyswitch.inner_product", "keyswitch"),
    "keyswitch_apply": ("keyswitch.apply", "keyswitch_apply"),
    "drop_top_limb": ("keyswitch.drop_top", "drop_top"),
    "tensor_product": ("tensor", "tensor"),
    "check_keyswitch_accumulation": ("keyswitch.check", "keyswitch_check"),
}
#: Fused method -> (phase span, the tick slots it sums), in phase order.
#: The keyswitch kernel's ticks: inverse NTTs, digit lifts, forward NTTs,
#: multiply-accumulates (the phased ``keyswitch.decompose`` covers the
#: first two), then the check loops of a checked call.  A phase that
#: ticked nothing (the check of an unchecked call) is not emitted.
_PHASES = {"keyswitch_apply": (("keyswitch.decompose", (0, 1)),
                               ("keyswitch.ntt", (2,)),
                               ("keyswitch.inner_product", (3,)),
                               ("keyswitch.check", (4,)))}
#: Length of the tick array a row-fused kernel is handed.
_TICK_SLOTS = 5
#: Backend attribute -> the counter its growth over one call feeds.
_COUNTERS = {
    "kernel_invocations": "backend.kernels.{kind}",
    "fallbacks": "backend.compiled.fallbacks",
    "self_checks": "backend.compiled.self_checks",
}
#: Cache metric family -> the backend's (hits, misses, size) attributes:
#: counters ``<family>.hit|miss|clears``, gauges ``.hits|misses|size``.
_CACHES = {
    "backend.program_cache": (
        "program_cache_hits", "program_cache_misses", "program_cache_size"),
    "backend.compiled_plan_cache": (
        "plan_cache_hits", "plan_cache_misses", "plan_cache_size"),
}


def _read(backend, kind: str) -> tuple[dict[str, int], dict[str, int]]:
    """``(counters, gauges)`` the backend's plain-int state maps to."""
    counters: dict[str, int] = {}
    gauges: dict[str, int] = {}
    for attr, metric in _COUNTERS.items():
        value = getattr(backend, attr, None)
        if value is not None:
            counters[metric.format(kind=kind)] = value
    for family, (hits, misses, size) in _CACHES.items():
        if getattr(backend, hits, None) is not None:
            counters[f"{family}.hit"] = getattr(backend, hits)
            counters[f"{family}.miss"] = getattr(backend, misses)
            gauges[f"{family}.hits"] = getattr(backend, hits)
            gauges[f"{family}.misses"] = getattr(backend, misses)
            gauges[f"{family}.size"] = getattr(backend, size)
    quarantined = getattr(backend, "quarantined_programs", None)
    if quarantined is not None:
        gauges["backend.quarantined_programs"] = len(quarantined)
    integrity = getattr(backend, "integrity_counters", None)
    if integrity is not None:
        counters.update((f"integrity.{key}", value)
                        for key, value in integrity().items())
        gauges["integrity.degrade_level"] = counters.pop(
            "integrity.degrade_level")
    return counters, gauges


class ObservedBackend:
    """A ``KernelBackend`` forwarding to the wrapped one, with a span
    and a counter mirror around every kernel call (module docstring).
    Everything else — ``name``, ``vpu``, ``inner``, the counters — reads
    through to the wrapped backend, and the optional protocol methods
    exist here exactly when they exist there."""

    def __init__(self, backend):
        self._backend = backend

    def __getattr__(self, attr):
        value = getattr(self._backend, attr)
        if attr in _KERNELS:
            return lambda *args, **kwargs: self._call(attr, *args, **kwargs)
        return self._clear_caches if attr == "clear_caches" else value

    def _call(self, method: str, *args, **kwargs):
        backend = self._backend
        suffix, kind = _KERNELS[method]
        ticks = None
        # A wrapping backend (one with an ``inner``) forwards the call to
        # its observed inner backend — under a checking integrity policy
        # with the check request added — which does the split.
        if method in _PHASES and not hasattr(backend, "inner"):
            ticks = kwargs["ticks"] = np.zeros(_TICK_SLOTS, dtype=np.int64)
        before, _ = _read(backend, kind)
        with obs.span(f"{backend.name}.{suffix}", cat="kernel",
                      **dict(zip(("n", "limbs"), np.shape(args[0])[::-1]))):
            start = time.perf_counter_ns()
            try:
                return getattr(backend, method)(*args, **kwargs)
            finally:
                if ticks is not None and ticks.any():
                    # (A declined call ticks nothing: the phased path
                    # that follows records the real phases.)
                    wall = time.perf_counter_ns() - start
                    for phase, slots in _PHASES[method]:
                        spent = int(ticks[list(slots)].sum())
                        if spent:
                            obs.record(phase, cat=obs.CAT_PHASE,
                                       dur_ns=wall * spent // int(ticks.sum()))
                after, gauges = _read(backend, kind)
                for metric, value in after.items():
                    if value != before[metric]:
                        obs.count(metric, value - before[metric])
                for metric, value in gauges.items():
                    obs.gauge(metric, value)

    def _clear_caches(self) -> None:
        self._backend.clear_caches()
        _, gauges = _read(self._backend, "")
        for family in _CACHES:
            if f"{family}.size" in gauges:
                obs.count(f"{family}.clears")
        for metric, value in gauges.items():
            obs.gauge(metric, value)

    def forward_ntt_batch(self, residues: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        return self._call("forward_ntt_batch", residues, primes)

    def inverse_ntt_batch(self, values: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        return self._call("inverse_ntt_batch", values, primes)

    def automorphism_eval_batch(self, values: np.ndarray, galois_k: int,
                                primes: tuple[int, ...]) -> np.ndarray:
        return self._call("automorphism_eval_batch", values, galois_k,
                          primes)


def observed(backend):
    """``backend`` behind an :class:`ObservedBackend` while an obs hook
    is installed (once: an observed backend is handed back as is);
    ``backend`` itself otherwise."""
    if obs.current_obs_hook() is None or isinstance(backend, ObservedBackend):
        return backend
    return ObservedBackend(backend)
