"""The asyncio serving engine: admission, retries, ladder, watchdog.

One :class:`ServeEngine` accepts ciphertext-op requests from many
tenants and resolves every single one of them — the central robustness
invariant, mechanically guaranteed by a watchdog: ``submit`` awaits the
worker's future through :func:`~repro.serve.deadline.with_deadline`
with a grace margin beyond the request deadline, so even a worker that
loses a completion (a chaos ``serve_drop``) cannot hang a caller.

The request path, in order:

1. **Admission** — per-tenant token bucket, then the health-scaled
   queue-depth gate (:class:`~repro.serve.admission
   .AdmissionController`).  Both reject with ``retry_after`` hints
   before any work is queued (load shedding happens at the door, where
   it is cheapest).
2. **Queue** — a single FIFO drained by ``workers`` concurrent worker
   tasks; queue wait is attributed to the ``queue`` phase.
3. **Attempts** — each attempt picks the lowest ladder level whose
   circuit breaker admits it, bounds the dispatch+compute in a
   per-attempt sub-deadline, verifies the result, and on failure either
   retries (exponential backoff with deterministic jitter, spending the
   tenant's retry budget) or walks the degradation ladder
   (level 1 = clamped numpy, level 2 = per-row golden — the
   :class:`~repro.fhe.backend.IntegrityBackend` ladder).
4. **Resolution** — a typed :class:`~repro.serve.requests.ServeResult`;
   exceptions never escape ``submit``.

Every request is one trace: ``submit`` opens a ``serve.request`` root
span with ``obs.request(...)`` (``Observer.begin_request``), the
minted :class:`~repro.obs.context.TraceContext` rides the ticket
across the queue, and the worker re-enters it with
:func:`~repro.obs.context.trace_scope` — so the queue wait, every
attempt (including retries and degrade steps), the backend kernels the
executor dispatches, and any journal records all carry the same
``trace_id`` and stitch under the root even though they run on
interleaved tasks.  Phase durations (queue / dispatch / compute /
verify) are *live* spans with real wall extents plus histograms, so
``python -m repro.obs`` renders serving runs the same way it renders
kernel runs.  All of it goes through the null-safe ``repro.obs`` verbs:
with observability off, no context is minted and no span exists.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.obs.context import TraceContext, bind_trace, unbind_trace
from repro.serve.admission import AdmissionController
from repro.serve.breaker import CircuitBreaker
from repro.serve.chaos import ChaosInjector, ChaosPlan
from repro.serve.deadline import Deadline, with_deadline
from repro.serve.errors import DeadlineExceeded, EngineClosedError
from repro.serve.limits import RetryBudget, RetryPolicy, TokenBucket
from repro.serve.requests import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    ServeRequest,
    ServeResult,
)

__all__ = ["ServeConfig", "ServeEngine"]

#: Deepest degradation-ladder level (mirrors IntegrityBackend).
_MAX_LEVEL = 2


@dataclass
class ServeConfig:
    """Engine knobs (defaults sized for toy-parameter serving)."""

    workers: int = 8
    queue_limit: int = 256
    #: Per-attempt cap carved out of the request deadline.
    attempt_timeout: float = 0.1
    #: Extra margin beyond the deadline before the watchdog resolves a
    #: request as timed out no matter what the worker is doing.
    watchdog_grace: float = 0.25
    max_attempts: int = 4
    #: Per-tenant token bucket (requests/second, burst size).
    tenant_rate: float = 2000.0
    tenant_burst: float = 200.0
    #: Per-tenant retry budget: fraction of completions earned back.
    retry_ratio: float = 0.2
    retry_initial: float = 5.0
    retry_cap: float = 20.0
    #: Circuit breakers guarding ladder levels 0 and 1.
    breaker_threshold: int = 5
    breaker_reset: float = 0.25
    breaker_probes: int = 2
    #: Backoff before a same-level retry.
    backoff_base: float = 0.002
    backoff_multiplier: float = 2.0
    backoff_cap: float = 0.02
    seed: int = 0


@dataclass
class _Ticket:
    """One queued request plus its resolution future."""

    request: ServeRequest
    future: "asyncio.Future[ServeResult]"
    queued_at: float
    plan: ChaosPlan = field(default_factory=ChaosPlan)
    #: The request's trace context, carried across the queue boundary
    #: (workers never share the submitter's contextvars); None when
    #: observability is off — no ids are minted, nothing is carried.
    trace_ctx: TraceContext | None = None


class ServeEngine:
    """Multi-tenant async scheduler over one executor."""

    def __init__(self, executor: Any, config: ServeConfig | None = None,
                 chaos: ChaosInjector | None = None,
                 journal: Any = None):
        self.executor = executor
        self.config = ServeConfig() if config is None else config
        self.chaos = chaos
        #: Optional :class:`repro.recover.journal.RequestJournal`: when
        #: set, every admitted request is durably journaled before it
        #: queues and its resolution recorded before submit returns, so
        #: a restarted engine can re-enqueue the admitted-but-unanswered
        #: set (:meth:`resume_pending`).
        self._journal = journal
        self.clock = time.monotonic
        self.admission = AdmissionController(
            self.config.queue_limit,
            health=getattr(executor, "health", None))
        self.retry_policy = RetryPolicy(
            base=self.config.backoff_base,
            multiplier=self.config.backoff_multiplier,
            max_delay=self.config.backoff_cap,
            seed=self.config.seed)
        self.breakers = {
            level: CircuitBreaker(self.config.breaker_threshold,
                                  self.config.breaker_reset,
                                  self.config.breaker_probes,
                                  clock=self.clock)
            for level in (0, 1)
        }
        self._buckets: dict[str, TokenBucket] = {}
        self._budgets: dict[str, RetryBudget] = {}
        self._queue: asyncio.Queue[_Ticket | None] = asyncio.Queue()
        self._depth = 0  # queued + executing (admission-visible backlog)
        self._workers: list[asyncio.Task[None]] = []
        self._closed = False
        self.counters: dict[str, int] = {
            "submitted": 0, "resolved": 0, "ok": 0, "degraded": 0,
            "rejected_rate": 0, "rejected_capacity": 0, "timeout": 0,
            "error": 0, "retries": 0, "integrity_failures": 0,
            "attempt_timeouts": 0, "watchdog_fires": 0, "degrade_steps": 0,
            "shutdown_resolved": 0, "journal_replayed": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if self._workers:
            return
        loop = asyncio.get_running_loop()
        self._workers = [loop.create_task(self._worker_loop(i))
                         for i in range(self.config.workers)]

    async def close(self, drain: bool = True) -> None:
        """Stop admitting and stop workers — resolving **every**
        outstanding ticket with a typed result, never hanging a caller.

        ``drain=True`` (default) lets already-queued work finish before
        the workers exit; ``drain=False`` resolves queued-but-unstarted
        tickets immediately as typed shutdown errors (in-flight ops
        still run to completion).  Either way a final sweep resolves
        tickets that raced admission — a ``submit`` that passed
        ``_admit`` just before ``_closed`` was set enqueues *behind*
        the worker stop sentinels, and without the sweep its future
        would only resolve when the caller's watchdog fired.
        """
        self._closed = True
        if not drain:
            self._sweep_queue()
        for _ in self._workers:
            self._queue.put_nowait(None)
        for task in self._workers:
            await task
        self._workers = []
        self._sweep_queue()

    def _sweep_queue(self) -> None:
        """Resolve every ticket still in the queue with a typed
        shutdown result (the close-time counterpart of the watchdog)."""
        leftover: list[_Ticket | None] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            leftover.append(item)
        for item in leftover:
            if item is None:
                # Preserve unconsumed worker stop sentinels.
                self._queue.put_nowait(item)
                continue
            self._depth = max(0, self._depth - 1)
            if item.future.done():
                continue
            self.counters["shutdown_resolved"] += 1
            obs.count("serve.shutdown_resolved")
            item.future.set_result(ServeResult(
                item.request.request_id, item.request.tenant,
                item.request.op, STATUS_ERROR,
                error=EngineClosedError.__name__))

    async def __aenter__(self) -> "ServeEngine":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- admission ---------------------------------------------------------

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.config.tenant_rate,
                                 self.config.tenant_burst, self.clock)
            self._buckets[tenant] = bucket
        return bucket

    def _budget(self, tenant: str) -> RetryBudget:
        budget = self._budgets.get(tenant)
        if budget is None:
            budget = RetryBudget(self.config.retry_ratio,
                                 self.config.retry_initial,
                                 self.config.retry_cap)
            self._budgets[tenant] = budget
        return budget

    def _reject(self, request: ServeRequest, reason: str,
                retry_after: float) -> ServeResult:
        key = ("rejected_rate" if reason == "rate_limited"
               else "rejected_capacity")
        self.counters[key] += 1
        obs.count(f"serve.{key}")
        return ServeResult(request.request_id, request.tenant, request.op,
                           STATUS_REJECTED, error=reason,
                           retry_after=retry_after)

    def _admit(self, request: ServeRequest) -> ServeResult | None:
        """Fast-fail admission; None means the request may queue."""
        if self._closed:
            return ServeResult(request.request_id, request.tenant,
                               request.op, STATUS_ERROR,
                               error=EngineClosedError.__name__)
        bucket = self._bucket(request.tenant)
        if not bucket.try_acquire():
            return self._reject(request, "rate_limited",
                                bucket.retry_after())
        if not self.admission.admit(self._depth):
            return self._reject(
                request, "overloaded",
                self.admission.retry_after(self._depth,
                                           self.config.workers))
        return None

    # -- submission --------------------------------------------------------

    async def submit(self, request: ServeRequest) -> ServeResult:
        """Resolve one request; always returns, never raises.

        This is the trace boundary: one ``submit`` is one trace.  The
        root ``serve.request`` span opens *before* admission (so even
        rejections are traced) and closes with the final status; the
        minted context rides the ticket so the worker's spans stitch
        under this root.
        """
        with obs.request("serve.request", cat="serve",
                         request=request.request_id, tenant=request.tenant,
                         op=request.op) as trace:
            trace.set(status="unresolved")
            result = await self._submit(request, trace.ctx)
            trace.set(status=result.status)
            return result

    async def _submit(self, request: ServeRequest,
                      trace_ctx: TraceContext | None) -> ServeResult:
        self.counters["submitted"] += 1
        submitted_at = self.clock()
        rejection = self._admit(request)
        if rejection is not None:
            self.counters["resolved"] += 1
            rejection.latency = self.clock() - submitted_at
            return rejection
        if self._journal is not None:
            # Durable point: once this record is on disk, a crash
            # between here and resolution leaves the request in the
            # journal's pending set for resume_pending().
            self._journal.record_submit(
                request.request_id, tenant=request.tenant, op=request.op,
                timeout_s=max(request.deadline.remaining(), 0.0),
                payload=request.payload)
        loop = asyncio.get_running_loop()
        future: asyncio.Future[ServeResult] = loop.create_future()
        plan = (self.chaos.plan_for(request.request_id)
                if self.chaos is not None else ChaosPlan())
        self._depth += 1
        self._queue.put_nowait(
            _Ticket(request, future, submitted_at, plan,
                    trace_ctx=trace_ctx))
        watchdog = Deadline(
            request.deadline.expires_at + self.config.watchdog_grace,
            request.deadline.clock)
        try:
            result = await with_deadline(asyncio.shield(future), watchdog)
        except DeadlineExceeded:
            # The last line of defense: a worker lost this request (or
            # is wedged past the grace margin).  Resolve it as a typed
            # timeout so the caller never hangs; if the worker finishes
            # later its set_result finds the future already done.
            self.counters["watchdog_fires"] += 1
            obs.count("serve.watchdog_fires")
            if not future.done():
                future.cancel()
            result = ServeResult(request.request_id, request.tenant,
                                 request.op, STATUS_TIMEOUT,
                                 error="WatchdogTimeout")
            self.counters["timeout"] += 1
        self.counters["resolved"] += 1
        if self._journal is not None:
            self._journal.record_resolve(request.request_id, result.status)
        result.latency = self.clock() - submitted_at
        return result

    async def resume_pending(self) -> list[ServeResult]:
        """Re-submit every journaled request that was admitted but never
        resolved (the restart half of the request journal).

        Each pending request is re-enqueued with a fresh deadline of
        its original budget; results resolve through the normal path
        (and are journaled as resolved, emptying the pending set).
        """
        if self._journal is None:
            return []
        results = []
        for entry in self._journal.pending():
            self.counters["journal_replayed"] += 1
            obs.count("serve.journal_replayed")
            request = ServeRequest(
                entry["id"], entry["tenant"], entry["op"],
                Deadline.after(entry["timeout_s"]),
                payload=entry.get("payload", 0))
            results.append(await self.submit(request))
        return results

    # -- worker loop -------------------------------------------------------

    async def _worker_loop(self, index: int) -> None:
        while True:
            ticket = await self._queue.get()
            if ticket is None:
                return
            try:
                result = await self._handle(ticket)
            except Exception as exc:  # noqa: BLE001 - typed resolution
                result = ServeResult(
                    ticket.request.request_id, ticket.request.tenant,
                    ticket.request.op, STATUS_ERROR,
                    error=type(exc).__name__)
                self.counters["error"] += 1
            finally:
                self._depth = max(0, self._depth - 1)
            if not ticket.future.done():
                ticket.future.set_result(result)

    def _base_level(self) -> int:
        """Lowest ladder level whose breaker admits traffic (level 2,
        the golden path, is always available)."""
        for level in (0, 1):
            if self.breakers[level].allow():
                return level
        return _MAX_LEVEL

    def _finish(self, ticket: _Ticket, result: ServeResult,
                phases: dict[str, int]) -> ServeResult:
        result.phases = phases
        self.counters[result.status] = self.counters.get(result.status, 0) + 1
        self._budget(ticket.request.tenant).deposit()
        service = (self.clock() - ticket.queued_at
                   - phases.get("queue", 0) / 1e9)
        self.admission.observe_service(max(0.0, service))
        # The spans are live (begun under the request's trace context
        # in _handle); only the histograms and counters are recorded at
        # resolution time.
        for phase in ("queue", "dispatch", "compute", "verify"):
            obs.observe_value(f"serve.phase.{phase}_ns", phases.get(phase, 0))
        obs.count(f"serve.status.{result.status}")
        obs.observe_value("serve.attempts", result.attempts)
        return result

    async def _handle(self, ticket: _Ticket) -> ServeResult:
        # Re-enter the request's trace on this worker task: the queue
        # does not carry contextvars, the ticket does.  Everything
        # below (and every backend span the executor opens) is stamped
        # with the request's trace_id until the unbind — which must
        # run on every exit, or the worker's next ticket would inherit
        # a stale trace.
        request = ticket.request
        plan = ticket.plan
        token = (bind_trace(ticket.trace_ctx)
                 if ticket.trace_ctx is not None else None)
        try:
            dispatch_start = self.clock()
            phases = {"queue": int((dispatch_start - ticket.queued_at) * 1e9),
                      "dispatch": 0, "compute": 0, "verify": 0}
            # The queue wait just ended: record it as an already-elapsed
            # span ([dequeue - wait, dequeue]) stitched under the root.
            obs.record("serve.queue", cat="serve", dur_ns=phases["queue"],
                       request=request.request_id)
            if request.deadline.expired():
                return self._finish(ticket, ServeResult(
                    request.request_id, request.tenant, request.op,
                    STATUS_TIMEOUT, error=DeadlineExceeded.__name__), phases)
            if plan.delay:
                # Chaos: delayed dispatch (never past the deadline).
                await asyncio.sleep(min(plan.delay, request.deadline.remaining()))
            attempts = 0
            retries = 0
            level = self._base_level()
            while True:
                attempts += 1
                dispatch_ns = int((self.clock() - dispatch_start) * 1e9)
                phases["dispatch"] += dispatch_ns
                obs.record("serve.dispatch", cat="serve",
                           dur_ns=dispatch_ns, attempt=attempts)
                value: Any = None
                verified = False
                attempt_timed_out = False
                # Live span: retries and degrade steps each get their own
                # serve.attempt, and the executor's backend spans nest
                # inside it structurally.
                with obs.span("serve.attempt", cat="serve",
                              request=request.request_id, attempt=attempts,
                              level=level) as attempt_span:
                    compute_start = self.clock()
                    try:
                        value = await with_deadline(
                            self._run_attempt(request, level, attempts, plan),
                            request.deadline.bounded(self.config.attempt_timeout))
                    except DeadlineExceeded:
                        attempt_timed_out = True
                        self.counters["attempt_timeouts"] += 1
                    verify_start = self.clock()
                    compute_ns = int((verify_start - compute_start) * 1e9)
                    phases["compute"] += compute_ns
                    obs.record("serve.compute", cat="serve",
                               dur_ns=compute_ns, level=level)
                    if not attempt_timed_out:
                        verified = bool(self.executor.verify(request, value))
                        verify_ns = int((self.clock() - verify_start) * 1e9)
                        phases["verify"] += verify_ns
                        obs.record("serve.verify", cat="serve",
                                   dur_ns=verify_ns, verified=verified)
                    attempt_span.set(verified=verified,
                                     timed_out=attempt_timed_out)
                if verified:
                    if level in self.breakers:
                        self.breakers[level].record_success()
                    status = STATUS_OK if level == 0 else STATUS_DEGRADED
                    return self._finish(ticket, ServeResult(
                        request.request_id, request.tenant, request.op, status,
                        level=level, attempts=attempts, retries=retries,
                        value=value), phases)
                # Attempt failed: integrity mismatch or a lost completion.
                if not attempt_timed_out:
                    self.counters["integrity_failures"] += 1
                    obs.count("serve.integrity_failures")
                if level in self.breakers:
                    self.breakers[level].record_failure()
                if request.deadline.expired():
                    return self._finish(ticket, ServeResult(
                        request.request_id, request.tenant, request.op,
                        STATUS_TIMEOUT, level=level, attempts=attempts,
                        retries=retries,
                        error=DeadlineExceeded.__name__), phases)
                dispatch_start = self.clock()
                may_retry = (attempts < self.config.max_attempts
                             and self._budget(request.tenant).try_spend())
                if may_retry:
                    retries += 1
                    self.counters["retries"] += 1
                    pause = self.retry_policy.delay(request.request_id, retries)
                    await asyncio.sleep(min(pause,
                                            request.deadline.remaining()))
                    level = max(level, self._base_level())
                    continue
                if level < _MAX_LEVEL:
                    # Budget or attempts exhausted at this level: degrade.
                    level += 1
                    self.counters["degrade_steps"] += 1
                    obs.count("serve.degrade_steps")
                    continue
                return self._finish(ticket, ServeResult(
                    request.request_id, request.tenant, request.op,
                    STATUS_ERROR, level=level, attempts=attempts,
                    retries=retries, error="IntegrityExhausted"), phases)

        finally:
            if token is not None:
                unbind_trace(token)

    async def _run_attempt(self, request: ServeRequest, level: int,
                           attempt: int, plan: ChaosPlan) -> Any:
        """One dispatch against the executor, with chaos applied.

        Runs inside the attempt's deadline wrapper, so a chaos drop
        (an awaitable that never resolves) is reclaimed by cancellation
        rather than hanging the worker.
        """
        if attempt <= plan.drop_attempts:
            # Chaos: the completion for this attempt is lost.  Park on
            # an event nobody sets; only cancellation releases it.
            await asyncio.Event().wait()
        value = await self.executor.run(request, level,
                                        straggle=plan.straggle)
        if level == 0 and attempt <= plan.corrupt_attempts:
            # Chaos: corrupt the level-0 result before verification —
            # the ABFT-analogue failure the retry/degrade path absorbs.
            value = self.executor.corrupt(value)
        return value

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict[str, int | float]:
        """Counter snapshot plus breaker state."""
        out: dict[str, int | float] = dict(self.counters)
        out["queue_capacity"] = self.admission.capacity()
        for level, breaker in self.breakers.items():
            out[f"breaker{level}_opened"] = breaker.opened_total
        return out
