"""Hierarchical span tracer for the behavioral model.

A :class:`Span` is one timed region of a run — a VPU program execution,
a kernel dispatch, a DRAM transfer, a keyswitch phase.  Spans nest: the
tracer keeps a *context-local* stack (one per asyncio task / thread of
execution, via :mod:`contextvars`), so a ``vpu.execute`` span opened
inside a ``keyswitch.ntt`` phase records that phase as its parent, and
interleaved asyncio workers each nest correctly against their own stack
instead of corrupting a shared one.  The whole run serializes as a
forest loadable by Perfetto (:mod:`repro.obs.export`).

Causality across stacks comes from the ambient
:class:`~repro.obs.context.TraceContext`: every span begun while a
context is bound is stamped ``(trace_id, span_id, parent_id)``, and a
span begun at the bottom of a fresh stack (a worker task picking up a
queued request) stitches under the context's carrier span by
``parent_id`` — one request, one connected trace, across however many
tasks touched it.

Two clocks ride on every span:

* **wall time** — monotonic ``perf_counter_ns`` at begin/end, the
  real-world cost of the Python model;
* **model cycles** — the VPU's architectural cycle count, attached by
  the instrumentation via :meth:`Tracer.add_cycles`.  Cycles accumulate
  on the *innermost open* span (``cycles_self``), so each architectural
  cycle is counted exactly once and per-phase attribution never double
  counts even when phases nest (:func:`cycle_attribution`).

The tracer is only ever driven through the process-global obs hook,
by the null-safe verbs of :mod:`repro.obs`; with the hook uninstalled
no span objects, clock reads, or dictionary writes happen anywhere in
the model.
"""

from __future__ import annotations

import contextvars
import itertools
import time
from dataclasses import dataclass, field

from repro.obs.context import current_trace_context

#: Span category for the named workload phases the attribution table
#: groups by (decompose / NTT / inner-product / mod-down / ...).
CAT_PHASE = "phase"


@dataclass
class Span:
    """One begin/end region of the trace tree."""

    name: str
    cat: str
    index: int
    parent: "Span | None"
    start_ns: int
    end_ns: int | None = None
    #: Model cycles attributed to this span itself (not its children).
    cycles_self: int = 0
    args: dict = field(default_factory=dict)
    children: "list[Span]" = field(default_factory=list)
    #: Request-scoped identity (0 = untraced): the ambient
    #: :class:`~repro.obs.context.TraceContext` at begin time.
    trace_id: int = 0
    span_id: int = 0
    #: Span this one hangs under causally: the structural parent when
    #: stacks are shared, or the context's carrier span when this span
    #: opened at the bottom of a fresh stack in another task.
    parent_id: int = 0

    @property
    def duration_ns(self) -> int:
        """Wall duration (0 while the span is still open)."""
        return 0 if self.end_ns is None else self.end_ns - self.start_ns

    def subtree_cycles(self) -> int:
        """Model cycles of this span plus every descendant."""
        total = self.cycles_self
        for child in self.children:
            total += child.subtree_cycles()
        return total

    def phase_ancestor(self) -> "Span | None":
        """Nearest enclosing span (self included) with the phase
        category — the bucket the attribution table charges."""
        span: Span | None = self
        while span is not None:
            if span.cat == CAT_PHASE:
                return span
            span = span.parent
        return None


class Tracer:
    """Collects a forest of spans via context-local begin/end stacks.

    Each thread of execution (asyncio task, thread) sees its own stack
    through a per-tracer :class:`contextvars.ContextVar`, so concurrent
    begin/end sequences nest independently.  ``end`` with an empty
    stack is a tolerated no-op (a crashed workload may unwind past its
    instrumentation), and :meth:`unwind` force-closes any spans left
    open anywhere so exporters always see a consistent forest; an
    ``end`` racing a force-close is likewise a no-op.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.spans: list[Span] = []  # every span, in begin order
        #: The current execution context's open-span stack (immutable
        #: tuple: asyncio tasks snapshot their context at creation, and
        #: tuples make those snapshots safe to extend independently).
        self._stack_var: "contextvars.ContextVar[tuple[Span, ...]]" = \
            contextvars.ContextVar(f"repro_span_stack_{id(self):x}",
                                   default=())
        #: Open spans across *all* contexts, by index — the force-close
        #: registry :meth:`unwind` drains and ``end`` consults so a
        #: span is closed exactly once.
        self._open: dict[int, Span] = {}
        self._span_ids = itertools.count(1)
        self.epoch_ns = clock()

    # -- the span stack ------------------------------------------------------

    def _mint(self, name: str, cat: str, parent: "Span | None",
              start_ns: int, args: dict) -> Span:
        trace_id = span_id = parent_id = 0
        ctx = current_trace_context()
        if ctx is not None:
            trace_id = ctx.trace_id
            span_id = next(self._span_ids)
            if parent is not None and parent.trace_id == trace_id \
                    and parent.span_id:
                parent_id = parent.span_id
            else:
                parent_id = ctx.span_id
        span = Span(name=name, cat=cat, index=len(self.spans),
                    parent=parent, start_ns=start_ns, args=args,
                    trace_id=trace_id, span_id=span_id,
                    parent_id=parent_id)
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)
        return span

    def begin(self, name: str, cat: str = "model", **args) -> Span:
        stack = self._stack_var.get()
        parent = stack[-1] if stack else None
        span = self._mint(name, cat, parent, self._clock(), dict(args))
        self._open[span.index] = span
        self._stack_var.set(stack + (span,))
        return span

    def end(self, **args) -> Span | None:
        stack = self._stack_var.get()
        if not stack:
            return None
        span = stack[-1]
        self._stack_var.set(stack[:-1])
        if span.index not in self._open:
            return None  # already force-closed by unwind()
        del self._open[span.index]
        span.end_ns = self._clock()
        span.args.update(args)
        return span

    def record(self, name: str, cat: str = "model", *, dur_ns: int = 0,
               **args) -> Span:
        """Record an already-elapsed region ending now: a span whose
        interval is ``[now - dur_ns, now]``, closed immediately.

        This is how measured-but-not-instrumentable intervals (queue
        wait: the request sat in a queue, nobody's stack was open)
        become real spans with correct wall extents and trace identity
        instead of zero-width retrospective markers."""
        now = self._clock()
        stack = self._stack_var.get()
        parent = stack[-1] if stack else None
        span = self._mint(name, cat, parent, now - max(0, int(dur_ns)),
                          dict(args))
        span.end_ns = now
        return span

    def unwind(self) -> int:
        """Close every still-open span (innermost — latest begun —
        first); returns how many were dangling."""
        dangling = len(self._open)
        for index in sorted(self._open, reverse=True):
            span = self._open.pop(index)
            span.end_ns = self._clock()
        self._stack_var.set(())
        return dangling

    # -- annotations ---------------------------------------------------------

    def add_cycles(self, cycles: int) -> None:
        """Charge model cycles to the innermost open span of the
        current execution context (dropped when no span is open —
        cycles outside any traced region)."""
        for span in reversed(self._stack_var.get()):
            if span.index in self._open:
                span.cycles_self += int(cycles)
                return

    @property
    def depth(self) -> int:
        """Open-span depth of the current execution context."""
        stack = self._stack_var.get()
        return sum(1 for span in stack if span.index in self._open)

    def roots(self) -> list[Span]:
        return [span for span in self.spans if span.parent is None]

    def total_cycles(self) -> int:
        """Every model cycle recorded anywhere in the trace."""
        return sum(span.cycles_self for span in self.spans)


def cycle_attribution(tracer: Tracer) -> "dict[str, dict]":
    """Per-phase model-cycle attribution.

    Every span's ``cycles_self`` is charged to its nearest enclosing
    phase-category span (``(unattributed)`` when there is none), so the
    column sums to :meth:`Tracer.total_cycles` exactly — the acceptance
    contract that per-phase cycles reconcile with the backend's reported
    total.  Wall time and span counts are aggregated per phase *span*
    (phases never share their own wall time with nested phases here
    because the repository's phase spans are sequential).
    """
    table: dict[str, dict] = {}

    def row(name: str) -> dict:
        return table.setdefault(
            name, {"cycles": 0, "wall_ns": 0, "spans": 0})

    for span in tracer.spans:
        if span.cat == CAT_PHASE:
            entry = row(span.name)
            entry["wall_ns"] += span.duration_ns
            entry["spans"] += 1
    for span in tracer.spans:
        if span.cycles_self == 0:
            continue
        phase = span.phase_ancestor()
        name = phase.name if phase is not None else "(unattributed)"
        row(name)["cycles"] += span.cycles_self
    return dict(sorted(table.items()))
