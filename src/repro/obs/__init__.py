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
per-request flow stitching), a JSON metrics snapshot, and a per-phase
cycle-attribution table (:mod:`repro.obs.export`,
``python -m repro.obs``).

Request-scoped tracing (:mod:`repro.obs.context`): ``begin_request`` /
``end_request`` mint a :class:`~repro.obs.context.TraceContext` and a
root span for one serving request; the context rides a contextvar (and
the engine's ticket, across the queue), so every span any asyncio
task opens on behalf of that request — backend kernels, integrity
dispatches and replays, recovery journaling — is stamped with the same
``trace_id`` and stitches under the root.  One request, one trace.

Hook contract (the overhead-neutrality guarantee): the one test of
"is a hook installed?" lives in this module, behind the verbs
:func:`span`, :func:`request`, :func:`record`, :func:`add_cycles`,
:func:`count`, :func:`gauge`, :func:`observe_value`.  Production code
calls them unconditionally ::

    from repro import obs

    with obs.span("vpu.execute", cat="vpu", m=self.m) as sp:
        ...
        obs.add_cycles(run.cycles)
        sp.set(cycles=run.cycles)

and with no hook installed every verb returns at once — ``span`` and
``request`` hand back one shared do-nothing handle — so there are no
span objects, no clock reads, no dict writes, no trace-id minting, zero
modeled cycles, and bit-identical kernel outputs.  A span exists only
as a ``with`` block, so it is closed on every exit, on the observer
that opened it.  Arguments are still evaluated with the hook off, so
sites sit per op, per ``vpu.execute``, per request — never per lane.
Code holds the :class:`Observer` itself (:func:`current_obs_hook`) only
to read ``.tracer`` / ``.metrics`` back out.  The test suite asserts
bit- and cycle-exactness with tracing off vs. on — including with a
bound :class:`~repro.obs.context.TraceContext` — and that the verbs
read no clock and allocate no handle with the hook off.

``REPRO_TRACE=1`` in the environment flips the hook on for CLI and
benchmark entry points that call :func:`enable_from_env`.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

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
from repro.obs.trace import CAT_PHASE, Span, Tracer, cycle_attribution

__all__ = [
    "CAT_PHASE",
    "Histogram",
    "LogHistogram",
    "MetricsRegistry",
    "Observer",
    "RequestTrace",
    "Span",
    "TraceContext",
    "Tracer",
    "add_cycles",
    "bind_trace",
    "check_span_tree",
    "count",
    "current_obs_hook",
    "current_trace_context",
    "cycle_attribution",
    "enable_from_env",
    "gauge",
    "install_obs_hook",
    "new_trace_id",
    "observe",
    "observe_value",
    "per_trace_cycles",
    "record",
    "request",
    "span",
    "trace_scope",
    "unbind_trace",
    "zero_gauges",
]


@dataclass(frozen=True)
class RequestTrace:
    """Handle returned by :meth:`Observer.begin_request`: the child
    context to propagate (carry it on the ticket) plus the restore
    token and root span :meth:`Observer.end_request` closes."""

    ctx: TraceContext
    token: object
    root: Span


class _NoSpan:
    """What :func:`span` and :func:`request` return with no hook
    installed: one shared handle on which everything does nothing."""

    __slots__ = ()
    ctx = None

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **end_args: Any) -> None:
        return None


_NO_SPAN = _NoSpan()


class _SpanScope:
    """One ``with`` span: begun on entry, ended on every exit — with the
    args :meth:`set` collected — on the observer that began it."""

    __slots__ = ("_obs", "_begin", "_end_args")

    def __init__(self, obs: "Observer", name: str, cat: str, args: dict):
        self._obs = obs
        self._begin = (name, cat, args)
        self._end_args: dict = {}

    def set(self, **end_args: Any) -> None:
        """Args to close the span with (later calls override)."""
        self._end_args.update(end_args)

    def __enter__(self) -> "_SpanScope":
        name, cat, args = self._begin
        self._obs.begin(name, cat, **args)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._obs.end(**self._end_args)


class _RequestScope(_SpanScope):
    """The ``with`` form of ``begin_request`` / ``end_request``;
    ``ctx`` is the context to carry across task boundaries."""

    __slots__ = ("ctx", "_handle")

    def __enter__(self) -> "_RequestScope":
        name, cat, args = self._begin
        self._handle = self._obs.begin_request(name, cat, **args)
        self.ctx = self._handle.ctx
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._obs.end_request(self._handle, **self._end_args)


class Observer:
    """One observation session: a tracer and a metrics registry.

    The module-level verbs forward here when this observer is the
    installed hook; tests and drivers that hold an observer call the
    same methods on it directly.
    """

    def __init__(self, tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None):
        self.tracer = Tracer() if tracer is None else tracer
        self.metrics = MetricsRegistry() if metrics is None else metrics

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
        """Charge model cycles to the innermost open span."""
        self.tracer.add_cycles(cycles)

    def span(self, name: str, cat: str = "model", **args) -> _SpanScope:
        """``with``-only span; the handle's ``set(**end_args)`` adds
        the args it closes with."""
        return _SpanScope(self, name, cat, args)

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

    def request(self, name: str, cat: str = "serve",
                **args) -> _RequestScope:
        """``with``-only :meth:`begin_request` / :meth:`end_request`
        pair; the handle has ``ctx`` (what crosses task boundaries)
        and ``set(**end_args)``."""
        return _RequestScope(self, name, cat, args)

    # -- metrics -------------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a counter."""
        self.metrics.inc(name, value)

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest value."""
        self.metrics.gauge(name, value)

    def zero_gauges(self, prefix: str) -> int:
        """Zero existing gauges under ``prefix`` and drop the matching
        sketch/histogram series (cache-reset paths)."""
        return self.metrics.zero_gauges(prefix)

    def observe_value(self, name: str, value: float) -> None:
        """Feed one sample to a histogram and its quantile sketch."""
        self.metrics.observe(name, value)


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
    for code that reads the tracer/registry back out; instrumentation
    sites use the verbs below."""
    return _ACTIVE_OBSERVER


# -- the verbs: what instrumentation sites call, hook or no hook -------------


def _verb(method, off=None):
    """The module-level form of an :class:`Observer` method: called on
    the installed observer, and with none installed returning ``off``
    at once — the one hook test every instrumentation site shares."""

    @functools.wraps(method)
    def verb(*args: Any, **kwargs: Any) -> Any:
        obs = _ACTIVE_OBSERVER
        return off if obs is None else method(obs, *args, **kwargs)

    return verb


span = _verb(Observer.span, _NO_SPAN)
request = _verb(Observer.request, _NO_SPAN)
record = _verb(Observer.record)
add_cycles = _verb(Observer.add_cycles)
count = _verb(Observer.count)
gauge = _verb(Observer.gauge)
observe_value = _verb(Observer.observe_value)
zero_gauges = _verb(Observer.zero_gauges)


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
