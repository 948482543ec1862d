"""Span recording from outside the program, for the traced pass.

Nothing under ``src/`` is edited: a :class:`Recorder` keeps spans in
memory, :func:`instrument` binds timed wrappers over the public entry
points of each layer for the duration of one pass and restores them
after, and :class:`BackendProxy` stands in for a ``KernelBackend`` under
``use_backend``.  A span is ``[name, layer, start_ns, end_ns, parent,
rows]``; ``parent`` is an index into the same list (-1 for a root) and
``rows`` is the residue-row count of a backend call.

A layer's self time is its span minus the part its children cover, so
the self times under one root sum to the root by construction.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

NAME, LAYER, START, END, PARENT, ROWS = range(6)

#: Every layer a span can belong to, outermost first.  ``bench`` is the
#: benchmark's own root spans; their self time is loop glue.
LAYERS = ("bench", "serve", "recover", "fhe.program", "fhe.ckks",
          "fhe.keyswitch", "fault", "fhe.backend", "core")
#: Layers below the ``KernelBackend`` protocol: time spent here is the
#: "backend busy" share of an op.
KERNEL_LAYERS = frozenset({"fault", "fhe.backend", "core"})

_now = time.perf_counter_ns


class Recorder:
    """In-memory span list with a stack for synchronous nesting.

    Synchronous code nests through ``stack``.  Spans that live across an
    ``await`` (a serve request, an executor attempt) are ``detached``:
    they name their parent and never sit on the stack; while their
    synchronous part runs they are published as ``ambient`` so the
    wrappers below them still find their parent.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.ambient = -1

    @contextmanager
    def detached(self, name: str, layer: str, parent: int = -1):
        """A span kept off the stack, for code that awaits inside it."""
        self.spans.append([name, layer, _now(), 0, parent, 0])
        index = len(self.spans) - 1
        try:
            yield index
        finally:
            self.spans[index][END] = _now()

    @contextmanager
    def span(self, name: str, layer: str):
        """A synchronous span around a block of benchmark code."""
        stack = self.stack
        with self.detached(name, layer,
                           stack[-1] if stack else self.ambient) as index:
            stack.append(index)
            try:
                yield index
            finally:
                stack.pop()

    def wrap(self, fn, name: str, layer: str, rows_of=None):
        """``fn`` with a span around every call.  ``rows_of(args)``
        gives the row count stored on backend spans."""
        spans, stack = self.spans, self.stack

        def timed(*args, **kwargs):
            span = [name, layer, 0, 0,
                    stack[-1] if stack else self.ambient,
                    rows_of(args) if rows_of is not None else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = _now()
                stack.pop()

        return timed


# -- the KernelBackend proxy -------------------------------------------------

#: Protocol methods the proxy times (those the wrapped backend has).
_BACKEND_METHODS = (
    "forward_ntt_batch", "inverse_ntt_batch", "automorphism_eval_batch",
    "forward_ntt", "inverse_ntt", "automorphism_eval",
    "keyswitch_inner_product", "check_keyswitch_accumulation",
)


def _rows(args) -> int:
    first = args[0]
    return int(first.shape[0]) if getattr(first, "ndim", 1) > 1 else 1


class BackendProxy:
    """A ``KernelBackend`` that forwards to ``inner`` with a span per
    call.  Optional protocol methods (the fused keyswitch kernel, the
    integrity spare-modulus check) exist on the proxy only when the
    wrapped backend has them, because callers probe with ``getattr``."""

    def __init__(self, inner, recorder: Recorder, layer: str = "fhe.backend"):
        self.inner = inner
        self.name = inner.name
        for method in _BACKEND_METHODS:
            fn = getattr(inner, method, None)
            if fn is not None:
                setattr(self, method, recorder.wrap(
                    fn, f"{layer}.{method}", layer, _rows))

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


@contextmanager
def traced_backend(backend, recorder: Recorder):
    """Proxy ``backend`` for one traced pass; yields the proxy.

    An :class:`IntegrityBackend` gets two proxies, one around it (layer
    ``fault``) and one around the backend it guards, so the integrity
    checks' own cost is the outer span's self time.  A ``VpuBackend``
    additionally has ``vpu.execute`` timed as layer ``core``.
    """
    undo = []
    from repro.fhe.backend import IntegrityBackend, VpuBackend

    target = backend
    if isinstance(backend, IntegrityBackend):
        guarded = backend.inner
        backend.inner = BackendProxy(guarded, recorder)
        undo.append(lambda: setattr(backend, "inner", guarded))
        target = guarded
        proxy = BackendProxy(backend, recorder, layer="fault")
    else:
        proxy = BackendProxy(backend, recorder)
    if isinstance(target, VpuBackend):
        vpu = target.vpu
        vpu.execute = recorder.wrap(vpu.execute, "core.execute", "core")
        undo.append(lambda: vpu.__dict__.pop("execute"))

    try:
        yield proxy
    finally:
        for action in undo:
            action()


# -- wrappers over the scheme and keyswitch entry points ---------------------

_CKKS_METHODS = (
    "multiply", "rotate", "relinearize", "rescale", "multiply_plain", "add",
    "add_plain", "match_scale", "rotate_hoisted", "encode", "encrypt",
    "decrypt",
)
_KEYSWITCH_FUNCTIONS = (
    "apply_keyswitch", "decompose_digits", "accumulate_keyswitch",
    "mod_down", "rescale",
)


@contextmanager
def instrument(recorder: Recorder):
    """Bind timed wrappers over ``CkksContext`` methods and the
    ``repro.fhe.keyswitch`` functions (and the names ``repro.fhe.ckks``
    imported from it), restoring the originals on exit."""
    import repro.fhe.ckks as ckks
    import repro.fhe.keyswitch as keyswitch

    saved = []

    def bind(owner, attr, name, layer):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(original, name, layer))

    for method in _CKKS_METHODS:
        bind(ckks.CkksContext, method, f"fhe.ckks.{method}", "fhe.ckks")
    for function in _KEYSWITCH_FUNCTIONS:
        original = getattr(keyswitch, function)
        bind(keyswitch, function, f"fhe.keyswitch.{function}",
             "fhe.keyswitch")
        if getattr(ckks, function, None) is original:
            # ckks.py imported the function by name: rebind that name
            # to the same wrapper so scheme-level calls are seen too.
            saved.append((ckks, function, original))
            setattr(ckks, function, getattr(keyswitch, function))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- analysis ----------------------------------------------------------------


class SpanTable:
    """Column view of a finished span list with per-span self time and
    per-subtree kernel totals."""

    def __init__(self, spans: list[list]):
        self.names = [s[NAME] for s in spans]
        self.layers = [s[LAYER] for s in spans]
        self.start = np.array([s[START] for s in spans], dtype=np.int64)
        self.end = np.array([s[END] for s in spans], dtype=np.int64)
        self.parent = np.array([s[PARENT] for s in spans], dtype=np.int64)
        self.rows = np.array([s[ROWS] for s in spans], dtype=np.int64)
        self.dur = self.end - self.start
        count = len(spans)
        covered = np.zeros(count, dtype=np.int64)
        for i in range(count):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += self.dur[i]
        self.self_ns = self.dur - covered
        kernel = np.array([layer in KERNEL_LAYERS for layer in self.layers])
        call = np.array([layer == "fhe.backend" for layer in self.layers])
        # Children are recorded after their parent, so one reverse sweep
        # folds every subtree into its root.
        self.busy_ns = np.where(kernel, self.self_ns, 0)
        self.calls = call.astype(np.int64)
        self.kernel_rows = {
            key: np.where([n == f"fhe.backend.{key}" for n in self.names],
                          self.rows, 0)
            for key in ("forward_ntt_batch", "inverse_ntt_batch",
                        "automorphism_eval_batch")}
        for i in range(count - 1, -1, -1):
            p = self.parent[i]
            if p >= 0:
                self.busy_ns[p] += self.busy_ns[i]
                self.calls[p] += self.calls[i]
                for column in self.kernel_rows.values():
                    column[p] += column[i]

    def indices(self, name: str) -> np.ndarray:
        return np.array([i for i, n in enumerate(self.names) if n == name],
                        dtype=np.int64)

    def roots(self) -> np.ndarray:
        return np.flatnonzero(self.parent < 0)

    def self_share_by(self, key_of) -> dict[str, float]:
        """Self time grouped by ``key_of(index)`` as a share of the
        summed root time."""
        total = float(self.dur[self.roots()].sum())
        out: dict[str, float] = {}
        for i, ns in enumerate(self.self_ns):
            key = key_of(i)
            out[key] = out.get(key, 0.0) + float(ns)
        return {k: v / total for k, v in out.items()} if total else out

    def problems(self, tolerance: float = 0.02) -> list[str]:
        """Well-formedness: every span closed, every child inside its
        parent, self times under each root summing to the root."""
        found = []
        if (self.end < self.start).any():
            found.append("a span was never closed")
        child = np.flatnonzero(self.parent >= 0)
        parent = self.parent[child]
        outside = ((self.start[child] < self.start[parent])
                   | (self.end[child] > self.end[parent]))
        if outside.any():
            i = int(child[np.flatnonzero(outside)[0]])
            found.append(f"span {self.names[i]} lies outside its parent "
                         f"{self.names[self.parent[i]]}")
        root_of = np.arange(len(self.parent))
        for i in range(len(root_of)):
            if self.parent[i] >= 0:
                root_of[i] = root_of[self.parent[i]]
        sums = np.zeros(len(root_of), dtype=np.int64)
        np.add.at(sums, root_of, self.self_ns)
        for r in self.roots():
            if abs(sums[r] - self.dur[r]) > tolerance * max(self.dur[r], 1):
                found.append(f"self times under root {self.names[r]} sum to "
                             f"{sums[r]} ns, root is {self.dur[r]} ns")
                break
        return found


def write_chrome_trace(spans: list[list], path: Path) -> None:
    """One Chrome-trace ``X`` event per span (loads in Perfetto)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = min((s[START] for s in spans), default=0)
    events = [{"name": s[NAME], "cat": s[LAYER], "ph": "X", "pid": 1,
               "tid": 1, "ts": (s[START] - origin) / 1e3,
               "dur": (s[END] - s[START]) / 1e3,
               "args": {"id": i, "parent": s[PARENT], "rows": s[ROWS]}}
              for i, s in enumerate(spans)]
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
