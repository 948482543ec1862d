"""``repro.obs`` — unified tracing, metrics, and cycle attribution.

The paper's claims are accounting claims: cycles, SRAM/DRAM traffic,
and component utilization.  This package makes the model's accounting
*inspectable*: a hierarchical span tracer and a metrics registry ride a
single process-global hook threaded through ``VectorProcessingUnit``
execution, SRAM/DRAM staging, ``ParallelVpuPool`` scheduling, the
serving engine, durable-execution journaling, and the keyswitch phases
— the kernel backends, integrity layer included, are observed from
outside by one wrapper (:mod:`repro.fhe.backend.observed`) — and
the exporters turn one run into a Perfetto-loadable Chrome trace (with
per-request flow stitching), a JSON metrics snapshot, a Prometheus
text exposition, and a per-phase cycle-attribution table
(:mod:`repro.obs.export`, :mod:`repro.obs.telemetry`,
``python -m repro.obs``).

Request-scoped tracing (:mod:`repro.obs.context`): ``begin_request`` /
``end_request`` mint a :class:`~repro.obs.context.TraceContext` and a
root span for one serving request; the context rides a contextvar (and
the engine's ticket, across the queue), so every span any asyncio
task opens on behalf of that request — backend kernels, integrity
dispatches and replays, recovery journaling — is stamped with the same
``trace_id`` and stitches under the root.  One request, one trace.

Hook contract (the overhead-neutrality guarantee, mirroring the fault
layer's FHC005): production code touches the hook only as ::

    obs = current_obs_hook()
    if obs is not None:
        obs.begin("vpu.execute")
    ...
    if obs is not None:
        obs.end(cycles=run.cycles)

so with observability disabled every site is one predictable branch —
no span objects, no clock reads, no dict writes, no trace-id minting,
zero modeled cycles, and bit-identical kernel outputs.  The FHC006
lint rule statically enforces the guard at every dereference (FHC013
additionally requires serve/recover span sites to go through the
context-propagating API), and the test suite asserts bit- and
cycle-exactness with tracing off vs. on — including with a bound
:class:`~repro.obs.context.TraceContext`.

``REPRO_TRACE=1`` in the environment flips the hook on for CLI and
benchmark entry points that call :func:`enable_from_env`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.context import (
    TraceContext,
    bind_trace,
    check_span_tree,
    current_trace_context,
    new_trace_id,
    per_trace_cycles,
    trace_scope,
    unbind_trace,
)
from repro.obs.metrics import Histogram, LogHistogram, MetricsRegistry
from repro.obs.telemetry import SnapshotRing, prometheus_text
from repro.obs.trace import CAT_PHASE, Span, Tracer, cycle_attribution

__all__ = [
    "CAT_PHASE",
    "Histogram",
    "LogHistogram",
    "MetricsRegistry",
    "Observer",
    "RequestTrace",
    "SnapshotRing",
    "Span",
    "TraceContext",
    "Tracer",
    "bind_trace",
    "check_span_tree",
    "current_obs_hook",
    "current_trace_context",
    "cycle_attribution",
    "enable_from_env",
    "install_obs_hook",
    "new_trace_id",
    "observe",
    "per_trace_cycles",
    "prometheus_text",
    "trace_scope",
    "unbind_trace",
]


@dataclass(frozen=True)
class RequestTrace:
    """Handle returned by :meth:`Observer.begin_request`: the child
    context to propagate (carry it on the ticket) plus the restore
    token and root span :meth:`Observer.end_request` closes."""

    ctx: TraceContext
    token: object
    root: Span


class Observer:
    """One observation session: tracer, metrics registry, snapshot ring.

    This is the object the instrumentation sites talk to through the
    guard; it exposes the small verb set the sites need so the hot-path
    call is one attribute lookup deep.
    """

    def __init__(self, tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 ring: SnapshotRing | None = None):
        self.tracer = Tracer() if tracer is None else tracer
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.ring = SnapshotRing() if ring is None else ring

    # -- tracing -------------------------------------------------------------

    def begin(self, name: str, cat: str = "model", **args) -> None:
        self.tracer.begin(name, cat, **args)

    def end(self, **args) -> None:
        self.tracer.end(**args)

    def record(self, name: str, cat: str = "model", *, dur_ns: int = 0,
               **args) -> None:
        """Record an already-elapsed region ending now (measured queue
        waits and backoff gaps; see :meth:`Tracer.record`)."""
        self.tracer.record(name, cat, dur_ns=dur_ns, **args)

    def add_cycles(self, cycles: int) -> None:
        self.tracer.add_cycles(cycles)

    @contextmanager
    def span(self, name: str, cat: str = "model", **args):
        """Context-manager span (exporter/driver-side convenience; the
        model's instrumentation sites use guarded begin/end pairs)."""
        self.tracer.begin(name, cat, **args)
        try:
            yield
        finally:
            self.tracer.end()

    # -- request-scoped tracing ----------------------------------------------

    def begin_request(self, name: str, cat: str = "serve",
                      **args) -> RequestTrace:
        """Open one request's trace: mint a trace id, bind it, begin
        the root span, and leave the root's child context ambient so
        everything the caller does until :meth:`end_request` stitches
        under the root.  The returned handle's ``ctx`` is what crosses
        task boundaries (e.g. on a serve ticket, re-entered with
        :func:`trace_scope`)."""
        trace_id = new_trace_id()
        token = bind_trace(TraceContext(trace_id))
        root = self.tracer.begin(name, cat, **args)
        ctx = TraceContext(trace_id, root.span_id)
        bind_trace(ctx)
        return RequestTrace(ctx=ctx, token=token, root=root)

    def end_request(self, handle: RequestTrace, **args) -> None:
        """Close the request's root span and restore the pre-request
        context binding."""
        self.tracer.end(**args)
        unbind_trace(handle.token)  # type: ignore[arg-type]

    # -- metrics -------------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.metrics.inc(name, value)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name, value)

    def zero_gauges(self, prefix: str) -> int:
        """Zero existing gauges under ``prefix`` and drop the matching
        sketch/histogram series (cache-reset paths)."""
        return self.metrics.zero_gauges(prefix)

    def observe_value(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    # -- telemetry -----------------------------------------------------------

    def tick_ring(self) -> None:
        """Feed the periodic snapshot ring (rate-limited internally)."""
        self.ring.tick(self.metrics)

    def reset_telemetry(self) -> None:
        """Drop accumulated ring state (cache/reset paths)."""
        self.ring.clear()


_ACTIVE_OBSERVER: Observer | None = None


def install_obs_hook(hook: Observer | None) -> Observer | None:
    """Install the process-global observer (None disables); returns the
    previous hook so callers can restore it."""
    global _ACTIVE_OBSERVER
    previous = _ACTIVE_OBSERVER
    _ACTIVE_OBSERVER = hook
    return previous


def current_obs_hook() -> Observer | None:
    """The process-global observer, or None when observability is off —
    the only way instrumentation sites reach the tracer/registry."""
    return _ACTIVE_OBSERVER


@contextmanager
def observe(hook: Observer | None = None):
    """Temporarily install an observer (a fresh one by default)."""
    session = Observer() if hook is None else hook
    previous = install_obs_hook(session)
    try:
        yield session
    finally:
        install_obs_hook(previous)


def enable_from_env() -> Observer | None:
    """Install a fresh observer when ``REPRO_TRACE`` is set (and no
    observer is active); entry points call this so tracing can be
    flipped on without code changes.  Returns the active observer."""
    if _ACTIVE_OBSERVER is None and os.environ.get("REPRO_TRACE"):
        install_obs_hook(Observer())
    return _ACTIVE_OBSERVER
