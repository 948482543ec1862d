"""Request-scoped trace contexts: the causal thread through the stack.

PR 4's tracer kept one implicit span stack, which is correct for a
single-threaded kernel run but wrong the moment interleaved asyncio
workers share it — PR 7 had to fall back to *retrospective* serve
spans.  This module supplies the missing causal identity: an explicit
:class:`TraceContext` ``(trace_id, span_id, parent_id)`` carried in a
:mod:`contextvars` variable, so every span the tracer mints while a
context is bound is stamped with the request it belongs to, and spans
begun in *other* asyncio tasks (workers, journal replay, recovery)
stitch under the request's root span by ``parent_id`` even though they
never shared a call stack.

Propagation rules:

* ``asyncio`` tasks copy the ambient context at creation, so a context
  bound around ``loop.create_task`` flows into the task for free.
* The serve engine's queue does **not** transfer context (workers are
  created at ``start()``); the ticket carries the request's
  :class:`TraceContext` and the worker re-enters it with
  :func:`trace_scope` — the one explicit hand-off in the system.
* Binding is only ever performed under an installed obs hook
  (:func:`repro.obs.request` is a no-op without one, and tickets then
  carry no context), so with observability disabled no ids are minted
  and no contextvar is touched.

:func:`per_trace_cycles` and :func:`check_span_tree` are the analysis
half: per-request cycle attribution that reconciles exactly with the
tracer's total, and the span-tree well-formedness check the chaos
campaign asserts (no orphan parents, no cross-trace nesting, exactly
one root per trace).
"""

from __future__ import annotations

import contextvars
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.trace import Tracer

__all__ = [
    "TraceContext",
    "bind_trace",
    "check_span_tree",
    "current_trace_context",
    "new_trace_id",
    "per_trace_cycles",
    "trace_scope",
    "unbind_trace",
]


@dataclass(frozen=True)
class TraceContext:
    """One request's position in its causal trace.

    ``trace_id`` names the request (process-unique, never 0);
    ``span_id`` is the span new child spans should stitch under (0 for
    a freshly minted trace with no root span yet).
    """

    trace_id: int
    span_id: int = 0

    def child(self, span_id: int) -> "TraceContext":
        """The context a span's children should inherit."""
        return TraceContext(self.trace_id, span_id)


#: The ambient trace context.  ``None`` (the default) means untraced —
#: spans minted without a binding carry ``trace_id == 0`` exactly as
#: before this module existed.
_CURRENT: "contextvars.ContextVar[TraceContext | None]" = \
    contextvars.ContextVar("repro_trace_context", default=None)

_TRACE_IDS = itertools.count(1)
_TRACE_ID_LOCK = threading.Lock()


def new_trace_id() -> int:
    """Mint a process-unique trace id (monotonic from 1; deterministic
    given a deterministic call order, so replayed campaigns produce
    identical trace numbering)."""
    with _TRACE_ID_LOCK:
        return next(_TRACE_IDS)


def current_trace_context() -> TraceContext | None:
    """The ambient :class:`TraceContext`, or None when untraced."""
    return _CURRENT.get()


def bind_trace(ctx: TraceContext | None) -> "contextvars.Token":
    """Bind ``ctx`` as the ambient context; returns the token
    :func:`unbind_trace` restores from."""
    return _CURRENT.set(ctx)


def unbind_trace(token: "contextvars.Token") -> None:
    """Restore the binding that was ambient before ``token``'s bind."""
    _CURRENT.reset(token)


@contextmanager
def trace_scope(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Run a block under ``ctx`` — the worker-side re-entry point for a
    context carried across the serve queue on a ticket."""
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)


# -- per-trace analysis ------------------------------------------------------


def per_trace_cycles(tracer: "Tracer") -> dict[int, int]:
    """Model cycles charged to each trace (``cycles_self`` summed by
    ``trace_id``; untraced spans land under key 0).  The column sums to
    :meth:`~repro.obs.trace.Tracer.total_cycles` exactly — the
    request-scoped counterpart of the phase-attribution guarantee."""
    totals: dict[int, int] = {}
    for span in tracer.spans:
        if span.cycles_self:
            totals[span.trace_id] = (totals.get(span.trace_id, 0)
                                     + span.cycles_self)
    return totals


def check_span_tree(tracer: "Tracer") -> list[str]:
    """Span-tree well-formedness violations (empty = ok).

    Checks, per the chaos-campaign contract:

    * no span left open (run after the trace quiesces; exporters call
      :meth:`~repro.obs.trace.Tracer.unwind` first);
    * every nonzero ``parent_id`` resolves to a span of the *same*
      trace (no orphan stitches);
    * structural nesting never crosses traces (a child begun on some
      context stack belongs to its parent's trace, or to none);
    * structural children sit inside their parent's wall interval;
    * every trace has exactly one root span (``parent_id == 0``).
    """
    problems: list[str] = []
    by_trace_span: dict[tuple[int, int], object] = {}
    roots: dict[int, int] = {}
    for span in tracer.spans:
        if span.end_ns is None:
            problems.append(f"span #{span.index} {span.name!r} never closed")
        if span.trace_id:
            if span.span_id:
                by_trace_span[(span.trace_id, span.span_id)] = span
            if span.parent_id == 0:
                roots[span.trace_id] = roots.get(span.trace_id, 0) + 1
    for span in tracer.spans:
        if span.trace_id and span.parent_id:
            if (span.trace_id, span.parent_id) not in by_trace_span:
                problems.append(
                    f"span #{span.index} {span.name!r} (trace "
                    f"{span.trace_id}) stitches to unknown parent span "
                    f"{span.parent_id} (orphan)")
        parent = span.parent
        if parent is not None:
            if (span.trace_id and parent.trace_id
                    and parent.trace_id != span.trace_id):
                problems.append(
                    f"span #{span.index} {span.name!r} (trace "
                    f"{span.trace_id}) structurally nested under trace "
                    f"{parent.trace_id} span {parent.name!r} (mis-nested)")
            if span.start_ns < parent.start_ns:
                problems.append(
                    f"span #{span.index} {span.name!r} begins before its "
                    f"parent {parent.name!r}")
            if (span.end_ns is not None and parent.end_ns is not None
                    and span.end_ns > parent.end_ns):
                problems.append(
                    f"span #{span.index} {span.name!r} outlives its "
                    f"parent {parent.name!r}")
    for trace_id, count in sorted(roots.items()):
        if count != 1:
            problems.append(
                f"trace {trace_id} has {count} root spans (expected 1)")
    rootless = {tid for tid, _ in by_trace_span} - set(roots)
    for trace_id in sorted(rootless):
        problems.append(f"trace {trace_id} has spans but no root span")
    return problems
