"""Serve-level chaos: deterministic failure injection above the kernel.

:mod:`repro.fault` injects *bit-level* faults inside the datapath; this
module extends the same deterministic-injection discipline to the
failure modes only a serving layer sees:

=================== =======================================================
site                what it does to a request
=================== =======================================================
``serve_delay``     delayed dispatch: extra latency before the attempt
``serve_drop``      dropped completion: the attempt's awaitable never
                    resolves (only the deadline wrapper can reclaim it)
``serve_straggler`` slow-limb straggler: compute takes ``magnitude``
                    times longer
``serve_integrity`` the result is corrupted before verification for the
                    first ``magnitude`` attempts (1 = transient, large =
                    persistent, forcing the degradation ladder)
=================== =======================================================

Every injection is a pure function of ``(seed, request_id)`` — a
campaign replays bit-identically, mirroring
:class:`repro.fault.injector.FaultSpec` determinism.  The campaign
driver (:func:`run_chaos_campaign`) fires a bursty trace through a real
engine and asserts the robustness contract: **zero hung requests, zero
silent corruptions, every affected request resolved with a typed
status**, and a bounded p99 (nothing outlives deadline + watchdog
grace).  Outcome classification reuses the fault layer's vocabulary
(masked / corrected / detected / silent) extended with the serve-only
resolutions (degraded / timeout / rejected / error).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import obs

__all__ = [
    "ChaosInjector",
    "ChaosPlan",
    "ChaosSpec",
    "SERVE_SITES",
    "SITE_DELAY",
    "SITE_DROP",
    "SITE_INTEGRITY",
    "SITE_STRAGGLER",
    "default_chaos_specs",
]

SITE_DELAY = "serve_delay"
SITE_DROP = "serve_drop"
SITE_STRAGGLER = "serve_straggler"
SITE_INTEGRITY = "serve_integrity"
SERVE_SITES = (SITE_DELAY, SITE_DROP, SITE_STRAGGLER, SITE_INTEGRITY)


@dataclass(frozen=True)
class ChaosSpec:
    """One chaos source: a site, a per-request firing probability, and
    a site-specific magnitude (seconds of delay, dropped attempts,
    straggle factor, or corrupted attempts)."""

    site: str
    rate: float
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.site not in SERVE_SITES:
            raise ValueError(f"unknown chaos site {self.site!r}; "
                             f"expected one of {SERVE_SITES}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.magnitude <= 0:
            raise ValueError("magnitude must be positive")


@dataclass
class ChaosPlan:
    """The realized injections for one request (all sites resolved)."""

    delay: float = 0.0
    drop_attempts: int = 0
    straggle: float = 1.0
    corrupt_attempts: int = 0
    sites: tuple[str, ...] = ()

    @property
    def affected(self) -> bool:
        return bool(self.sites)


def default_chaos_specs(intensity: float = 1.0) -> tuple[ChaosSpec, ...]:
    """The standard campaign mix: common transients plus a rare
    persistent corruption that forces the degradation ladder."""
    scale = min(1.0, intensity)
    return (
        ChaosSpec(SITE_DELAY, rate=0.10 * scale, magnitude=0.02),
        ChaosSpec(SITE_DROP, rate=0.05 * scale, magnitude=1),
        ChaosSpec(SITE_STRAGGLER, rate=0.08 * scale, magnitude=4.0),
        ChaosSpec(SITE_INTEGRITY, rate=0.10 * scale, magnitude=1),
        ChaosSpec(SITE_INTEGRITY, rate=0.03 * scale, magnitude=99),
    )


class ChaosInjector:
    """Deterministic per-request chaos planner.

    The engine asks :meth:`plan_for` exactly once per request; the plan
    is derived from ``(seed, request_id)`` alone, so injection records
    and replays agree by construction.
    """

    def __init__(self, specs: tuple[ChaosSpec, ...] = (), seed: int = 0):
        self.specs = tuple(specs)
        self.seed = seed
        self.injections = 0
        self.by_site: dict[str, int] = {site: 0 for site in SERVE_SITES}
        self.affected_ids: set[int] = set()
        self._plans: dict[int, ChaosPlan] = {}

    def plan_for(self, request_id: int) -> ChaosPlan:
        plan = self._plans.get(request_id)
        if plan is not None:
            return plan
        rng = random.Random(f"{self.seed}:{request_id}")
        delay = 0.0
        drop = 0
        straggle = 1.0
        corrupt = 0
        sites: list[str] = []
        for spec in self.specs:
            if rng.random() >= spec.rate:
                continue
            sites.append(spec.site)
            if spec.site == SITE_DELAY:
                delay += spec.magnitude * (0.5 + rng.random())
            elif spec.site == SITE_DROP:
                drop = max(drop, int(spec.magnitude))
            elif spec.site == SITE_STRAGGLER:
                straggle = max(straggle, spec.magnitude)
            elif spec.site == SITE_INTEGRITY:
                corrupt = max(corrupt, int(spec.magnitude))
        plan = ChaosPlan(delay, drop, straggle, corrupt, tuple(sites))
        self._plans[request_id] = plan
        if plan.affected:
            self.injections += len(sites)
            self.affected_ids.add(request_id)
            for site in sites:
                self.by_site[site] += 1
            obs.count("serve.chaos.injections", len(sites))
        return plan


@dataclass
class CampaignOutcome:
    """Aggregate verdict of one chaos campaign run."""

    submitted: int = 0
    resolved: int = 0
    injections: int = 0
    affected: int = 0
    hung: int = 0
    silent: int = 0
    untyped: int = 0
    p99_latency: float = 0.0
    outcomes: dict[str, int] = field(default_factory=dict)
    by_site: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def _classify(result, affected: bool) -> str:
    """Fault-vocabulary outcome for one resolved request."""
    from repro.serve.requests import (
        STATUS_DEGRADED,
        STATUS_OK,
        STATUS_REJECTED,
        STATUS_TIMEOUT,
    )

    if result.status == STATUS_OK:
        if not affected:
            return "clean"
        return "corrected" if result.retries else "masked"
    if result.status == STATUS_DEGRADED:
        return "degraded"
    if result.status == STATUS_TIMEOUT:
        return "timeout"
    if result.status == STATUS_REJECTED:
        return "rejected"
    return "errored"


def run_chaos_campaign(requests: int = 900, seed: int = 0,
                       executor: str = "sim", min_injections: int = 200,
                       intensity: float = 1.0) -> CampaignOutcome:
    """Fire a bursty trace through a chaos-wrapped engine and check the
    robustness contract.

    Violations collected (an empty list is a pass):

    * any submitted request left unresolved (hung);
    * any ``ok``/``degraded`` result whose value fails an independent
      re-verification (silent corruption);
    * any resolution outside the typed status set, or a failure status
      with no typed ``error``;
    * p99 latency beyond ``deadline + watchdog grace`` (unbounded tail);
    * fewer realized injections than ``min_injections``;
    * with an observer installed: any span-tree malformation (orphan
      stitches, cross-trace nesting, missing/duplicate roots) and any
      mismatch between per-trace cycle sums and the registry's
      ``serve.model_cycles`` counter.
    """
    import asyncio

    from repro.serve.bench import run_trace
    from repro.serve.engine import ServeConfig, ServeEngine
    from repro.serve.executor import CkksOpExecutor, SimulatedExecutor
    from repro.serve.requests import (
        RESOLVED_STATUSES,
        STATUS_ERROR,
        STATUS_TIMEOUT,
    )
    from repro.serve.trace import TraceConfig, generate_trace

    if executor == "sim":
        exec_impl: object = SimulatedExecutor(seed=seed)
    elif executor == "ckks":
        exec_impl = CkksOpExecutor(seed=seed)
    else:
        raise ValueError(f"unknown executor {executor!r}")
    injector = ChaosInjector(default_chaos_specs(intensity), seed=seed)
    config = ServeConfig(seed=seed)
    # Keep the offered load below the shed point: chaos plans are
    # minted at enqueue, so a request rejected at admission never
    # realizes its injections.  Bursts (6x the base rate) still push
    # the engine through the overload path.
    trace_config = TraceConfig(
        requests=requests, seed=seed,
        rate=1200.0 if executor == "sim" else 400.0)
    items = generate_trace(trace_config)
    engine = ServeEngine(exec_impl, config, chaos=injector)
    results = asyncio.run(run_trace(engine, items, paced=True))

    outcome = CampaignOutcome(
        submitted=len(items), resolved=len(results),
        injections=injector.injections,
        affected=len(injector.affected_ids),
        by_site=dict(injector.by_site))
    if outcome.resolved != outcome.submitted:
        outcome.hung = outcome.submitted - outcome.resolved
        outcome.violations.append(
            f"{outcome.hung} requests never resolved (hung)")
    latencies = sorted(r.latency for r in results)
    if latencies:
        outcome.p99_latency = latencies[
            min(len(latencies) - 1, int(0.99 * len(latencies)))]
    bound = max(trace_config.timeouts) + config.watchdog_grace + 0.1
    if outcome.p99_latency > bound:
        outcome.violations.append(
            f"p99 latency {outcome.p99_latency:.3f}s exceeds the "
            f"deadline+grace bound {bound:.3f}s")
    by_item = {item.request_id: item for item in items}
    for result in results:
        affected = result.request_id in injector.affected_ids
        kind = _classify(result, affected)
        outcome.outcomes[kind] = outcome.outcomes.get(kind, 0) + 1
        if result.status not in RESOLVED_STATUSES:
            outcome.untyped += 1
            outcome.violations.append(
                f"request {result.request_id} resolved with unknown "
                f"status {result.status!r}")
            continue
        if (result.status in (STATUS_TIMEOUT, STATUS_ERROR)
                and not result.error):
            outcome.untyped += 1
            outcome.violations.append(
                f"request {result.request_id} failed without a typed "
                f"error")
        if result.succeeded:
            request = by_item[result.request_id]
            from repro.serve.trace import materialize

            probe = materialize(request)
            if not exec_impl.verify(probe, result.value):  # type: ignore[attr-defined]
                outcome.silent += 1
                outcome.violations.append(
                    f"request {result.request_id} returned a corrupted "
                    f"value with status {result.status!r} (silent)")
    if outcome.injections < min_injections:
        outcome.violations.append(
            f"only {outcome.injections} injections realized; campaign "
            f"requires >= {min_injections}")
    observer = obs.current_obs_hook()
    if observer is not None:
        # Trace well-formedness is part of the chaos contract: after
        # the engine quiesces no span may be left open, every request's
        # spans must form one stitched tree under its root, and cycles
        # summed per trace must reconcile with the registry's counter
        # (retries, degrades, and watchdog races included).
        dangling = observer.tracer.unwind()
        if dangling:
            outcome.violations.append(
                f"{dangling} spans left open after the campaign quiesced")
        for problem in obs.check_span_tree(observer.tracer):
            outcome.violations.append(f"span-tree: {problem}")
        traced = sum(cycles for trace_id, cycles
                     in obs.per_trace_cycles(observer.tracer).items()
                     if trace_id)
        counted = int(observer.metrics.counters.get("serve.model_cycles", 0))
        if traced != counted:
            outcome.violations.append(
                f"per-trace cycle sum {traced} != serve.model_cycles "
                f"counter {counted} (attribution leak)")
        observer.gauge("serve.chaos.p99_latency", round(outcome.p99_latency, 6))
        observer.count("serve.chaos.campaign_violations",
                       len(outcome.violations))
    return outcome
