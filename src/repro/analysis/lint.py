"""Repository-specific AST lint rules (the ``fhecheck lint`` pass).

These are *heuristic* rules targeting the failure modes this codebase
has actually paid for in review time — eight of them, the stale-waiver
report FHC010 included, each encoding one way the uint64 fast paths
(or the layers around them) silently go wrong.  The gaps in the
numbering are rules deleted when a refactor made what they policed
unwritable (DESIGN.md says which and how).

``FHC001`` **object-dtype leak** — an ``object``-dtype value (from
    ``.astype(object)`` or ``dtype=object``) is narrowed straight into a
    fixed-width integer (``.astype(np.uint64)``, ``np.uint64(...)``)
    without an intervening ``%`` reduction, or fed to ``np.minimum``
    (whose wraparound-clamp idiom is meaningless off uint64).

``FHC002`` **unchecked narrowing** — ``.astype`` to a *signed or
    narrower* integer dtype (``int64``/``int32``/``uint32``) with no
    visible power-of-two range guard on the narrowed value in the
    enclosing function.  Widening to ``uint64`` is exempt.  A dtype held
    in a local name (``dtype = np.uint32 if ... else np.uint64``) is
    resolved when every binding of the name is a literal dtype, and
    each of them is checked.

``FHC003`` **unreduced product under %** — ``(a ± b) * c % q`` in
    uint64-handling code, or the same product handed to the row
    reduction ``reduce_rows``: the product of an unreduced sum can
    exceed uint64 *before* the reduction ever runs.  Operands already
    reduced by an inner ``%`` are exempt.

``FHC004`` **lazy value escapes unclamped** — a function calls one of
    the lazy/unclamped stage kernels but never applies a ``%`` (or
    ``np.remainder``) or a ``np.minimum`` conditional subtract
    afterwards, so a ``>= q`` (or ``>= 2q``) value may become
    architecturally visible.  Every call site counts, so a transform
    that runs its stages in two calls (the numpy plan's natural and
    transposed spans) is checked at both.

``FHC005`` **unguarded fault-hook dereference** — a method is invoked
    on a fault-injection hook (``*fault_hook`` attributes/names, or
    local aliases assigned from them, e.g.
    ``hook = self.fault_hook`` / ``hook = current_fault_hook()``)
    outside an ``if <hook> is not None`` guard.  Injection hooks must be
    exact no-ops when disabled — one predictable branch, zero modeled
    cycles — so every dereference needs the guard.  Calling the
    installer/accessor functions themselves
    (``install_fault_hook(...)``, ``current_fault_hook()``) is exempt.

``FHC011`` **bare backend await in the serving layer** — inside
    :mod:`repro.serve` (the only async package), an ``await`` whose
    awaited expression reaches backend work (kernel dispatch, op
    execution, ``asyncio.to_thread``/``run_in_executor`` offloads) must
    be wrapped in the deadline/cancellation helper
    (:func:`repro.serve.deadline.with_deadline` or a ``*_with_deadline``
    wrapper).  A bare await on backend work can outlive its request's
    deadline — exactly the hang the serving layer promises can never
    happen.  Awaits on queue/lock/sleep primitives are exempt (they are
    bounded by the request watchdog), as is the wrapper's own internal
    ``asyncio.wait_for``.

``FHC012`` **non-durable write in the recovery layer** — inside
    :mod:`repro.recover` (the durable-execution package), a
    ``.write(...)`` call in a function with no visible fsync evidence
    (an ``os.fsync``/``*fsync*`` call in the same function).  The
    crash-recovery guarantee rests on the write-ahead log's fsync
    discipline: a journal append that is not flushed through the
    fsync'd :meth:`repro.recover.wal.WriteAheadLog.append` API can be
    lost (or half-written without detection) on a crash the campaign
    would then classify as silent.  Route journal appends through
    ``append()``; raw writes are legal only inside functions that fsync
    what they wrote.

Suppression: append ``# fhecheck: ok`` (all rules) or
``# fhecheck: ok=FHC002`` (one rule) to the offending line — or to the
line directly above it when the line is too long — ideally with a
justification after an em-dash.  Suppressions are deliberate,
reviewable artifacts — the point is that the *reason* lives next to the
code instead of in a lost PR comment.  Suppression comments that no
longer suppress anything are themselves reported (``FHC010``, warning
severity, like ruff's unused-noqa) so stale waivers cannot outlive the
finding they excused.  Only real comments count: the scanner works on
tokenized COMMENT tokens, so suppression text inside string literals
(docstrings, test fixtures) is inert.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

from repro.analysis.findings import Finding, FindingList

_SUPPRESS_RE = re.compile(r"#\s*fhecheck:\s*ok(?:=(?P<rules>[A-Z0-9,]+))?")

_NARROW_DTYPES = {"int64", "int32", "uint32", "int16", "uint16",
                  "int8", "uint8"}
_LAZY_KERNELS = {"dif_stages_lazy", "dit_stages_lazy",
                 "dit_stages_unclamped"}
#: The row reduction (:func:`repro.fhe.polynomial.reduce_rows`): its
#: first argument is checked by FHC003 like the left side of a ``%``.
_ROW_REDUCTION = "reduce_rows"
#: Files subject to FHC011: the async serving layer.
_SERVE_PATH_RE = re.compile(r"repro[/\\]serve[/\\]")
#: Files subject to FHC012: the durable-execution layer.
_RECOVER_PATH_RE = re.compile(r"repro[/\\]recover[/\\]")
#: Names that mark an awaited expression as *backend work* (FHC011):
#: kernel/op dispatch verbs and thread-offload primitives.  The naming
#: convention is load-bearing: serve code names its backend entry
#: points with these verbs and keeps bounded primitives (queue get,
#: lock acquire, sleep) off the list.
_SERVE_WORK_RE = re.compile(
    r"(?:^|_)(?:ntt|intt|keyswitch|hmult|hrot|rescale|rotate|multiply|"
    r"automorphism|execute|compute|dispatch|kernel)(?:_|$)"
    r"|^to_thread$|^run_in_executor$|_batch$")
#: The sanctioned deadline/cancellation wrappers (FHC011).
_DEADLINE_WRAPPER = "with_deadline"


def _dtype_name(node: ast.expr) -> str | None:
    """Name of a dtype expression: ``np.int64`` -> ``int64``,
    ``"int64"`` -> ``int64``, ``object`` -> ``object``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_astype_call(node: ast.AST, dtypes: set[str]) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and len(node.args) == 1
            and _dtype_name(node.args[0]) in dtypes)


def _literal_dtypes(node: ast.expr) -> list[str] | None:
    """The dtypes a literal dtype expression names — one, or each arm of
    a conditional of literals — or None for anything else."""
    if isinstance(node, ast.IfExp):
        body, orelse = _literal_dtypes(node.body), _literal_dtypes(node.orelse)
        return None if body is None or orelse is None else body + orelse
    name = _dtype_name(node)
    return None if name is None else [name]


def _astype_dtypes(node: ast.Call, fn: ast.AST | None) -> list[str]:
    """The dtypes an ``.astype(dtype)`` call may narrow to: the literal
    one, or — for a name ``fn`` binds only in single-target assignments
    of literal dtypes — each of those.  Empty for anything else."""
    if not (isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype" and len(node.args) == 1):
        return []
    arg = node.args[0]
    if not isinstance(arg, ast.Name) or fn is None:
        return _literal_dtypes(arg) or []
    stores = [sub for sub in ast.walk(fn)
              if isinstance(sub, ast.arg) and sub.arg == arg.id
              or isinstance(sub, ast.Name) and sub.id == arg.id
              and not isinstance(sub.ctx, ast.Load)]
    if not stores:  # a global or a builtin (``object``)
        return [arg.id]
    values = {id(sub.targets[0]): sub.value for sub in ast.walk(fn)
              if isinstance(sub, ast.Assign) and len(sub.targets) == 1}
    dtypes: list[str] = []
    for store in stores:
        names = _literal_dtypes(values[id(store)]) \
            if id(store) in values else None
        if names is None:
            return []
        dtypes += names
    return dtypes


def _has_object_dtype(node: ast.AST, *, stop_at_mod: bool) -> bool:
    """Does the subtree produce/contain an object-dtype value?

    With ``stop_at_mod`` the search does not descend below a ``%`` or
    ``//`` operation — a value reduced (or re-bounded by division, as in
    the Shoup precompute ``(w << 32) // q``) is safe to narrow
    regardless of how it was produced.
    """
    if stop_at_mod and isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Mod, ast.FloorDiv)):
        return False
    if _is_astype_call(node, {"object"}):
        return True
    if isinstance(node, ast.keyword) and node.arg == "dtype" and \
            _dtype_name(node.value) == "object":
        return True
    return any(_has_object_dtype(child, stop_at_mod=stop_at_mod)
               for child in ast.iter_child_nodes(node))


def _is_np_call(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np")


def _contains_unreduced_sum(node: ast.expr) -> bool:
    """Is this multiplicand syntactically an un-reduced sum/difference?"""
    return (isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.Add, ast.Sub)))


def _is_width_bound(compare: ast.Compare) -> bool:
    """Is one side of the comparison a power of two (``1 << 31`` /
    ``2**31``) or a halving (``q // 2``)?"""
    for side in [compare.left, *compare.comparators]:
        for sub in ast.walk(side):
            if not isinstance(sub, ast.BinOp):
                continue
            if isinstance(sub.op, (ast.LShift, ast.Pow)) and isinstance(
                    sub.left, ast.Constant) and sub.left.value in (1, 2):
                return True
            if isinstance(sub.op, ast.FloorDiv) and isinstance(
                    sub.right, ast.Constant) and sub.right.value == 2:
                return True
    return False


def _has_range_guard(fn: ast.AST, call: ast.Call) -> bool:
    """Does the function visibly bound the value ``call`` narrows?

    A width comparison (:func:`_is_width_bound`) counts only when it
    bounds that value: it sits inside the ``.astype`` receiver, or it
    mentions the receiver or a name the narrowed result is assigned to.
    Two idioms pass:

    * an explicit width gate on the value (``x.max() < (1 << 31)``);
    * the repository's centered-lift pattern
      ``np.where(x > q // 2, x - q, x)`` — the comparison against
      ``_ // 2`` marks the value as a reduced residue (``< q < 2**62``,
      the Barrett modulus ceiling), which int64 holds exactly.

    A width test of anything else — a modulus, a dtype choice — guards
    nothing here.
    """
    receiver = call.func.value  # type: ignore[attr-defined]
    values = {ast.unparse(receiver)}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and any(
                sub is call for sub in ast.walk(node.value)):
            values.update(ast.unparse(target) for target in node.targets)
    inside = {id(sub) for sub in ast.walk(receiver)}
    return any(
        isinstance(node, ast.Compare) and _is_width_bound(node) and (
            id(node) in inside
            or any(ast.unparse(sub) in values for sub in ast.walk(node)))
        for node in ast.walk(fn))


def _function_mentions_uint64(fn: ast.AST, source: str,
                              lines: list[str]) -> bool:
    """FHC003 scope guard: only numpy/uint64-handling functions are
    subject — scalar Python-int code is exact and exempt."""
    segment = ast.get_source_segment(source, fn)
    if segment is None:  # pragma: no cover - degenerate source
        return True
    return "uint64" in segment


#: Name suffix of the fault-injection hooks FHC005 tracks.
_FAULT_HOOK = "fault_hook"


def _mentions_hook(node: ast.AST, aliases: set[str]) -> bool:
    """Does the subtree reference a fault hook — a ``*fault_hook``
    attribute/name (including the accessor functions) or a tracked
    local alias?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and (sub.id.endswith(_FAULT_HOOK)
                                          or sub.id in aliases):
            return True
        if isinstance(sub, ast.Attribute) and sub.attr.endswith(_FAULT_HOOK):
            return True
    return False


def _collect_hook_aliases(fn: ast.AST) -> set[str]:
    """Names assigned (transitively) from a hook expression, to a
    fixed point: ``hook = self.fault_hook``, ``h = hook``,
    ``hook = current_fault_hook()``, ..."""
    aliases: set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            if not _mentions_hook(node.value, aliases):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id not in aliases:
                    aliases.add(target.id)
                    changed = True
    return aliases


def _scan_guarded(fn: ast.AST, mentions, on_call) -> None:
    """Walk ``fn`` tracking branch-guardedness, invoking
    ``on_call(call, guarded)`` for every call expression.

    A node is *guarded* when it sits in the taken branch of an
    ``if``/``while``/conditional expression (or to the right of an
    ``and``) whose test satisfies ``mentions`` — the skeleton of the
    guarded-dereference rule (FHC005).  ``else`` branches inherit only
    the outer guardedness; nested function scopes get their own pass.
    """

    def scan(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)) and node is not fn:
            return  # nested scopes get their own pass
        if isinstance(node, (ast.If, ast.While)):
            scan(node.test, guarded)
            body_guarded = guarded or mentions(node.test)
            for stmt in node.body:
                scan(stmt, body_guarded)
            for stmt in node.orelse:
                scan(stmt, guarded)
            return
        if isinstance(node, ast.IfExp):
            scan(node.test, guarded)
            scan(node.body, guarded or mentions(node.test))
            scan(node.orelse, guarded)
            return
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            running = guarded
            for value in node.values:
                scan(value, running)
                running = running or mentions(value)
            return
        if isinstance(node, ast.Call):
            on_call(node, guarded)
        for child in ast.iter_child_nodes(node):
            scan(child, guarded)

    scan(fn, False)


class _Suppressions:
    """``# fhecheck: ok[=RULES]`` comments, from real COMMENT tokens.

    Tokenizing (rather than regex-scanning raw lines) keeps suppression
    text inside string literals — docstrings, lint-test fixtures —
    inert, which in turn lets :meth:`unused` report stale waivers
    without false positives.
    """

    def __init__(self, source: str):
        self.by_line: dict[int, set[str] | None] = {}
        self.used: set[int] = set()
        try:
            tokens = list(tokenize.generate_tokens(
                io.StringIO(source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            tokens = []  # unparseable files already yield FHC000
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match:
                rules = match.group("rules")
                self.by_line[token.start[0]] = (set(rules.split(","))
                                                if rules else None)

    def active(self, lineno: int, rule: str) -> bool:
        # A suppression lives on the offending line or, when the line is
        # too long for a trailing comment, on the line directly above.
        for candidate in (lineno, lineno - 1):
            if candidate in self.by_line:
                rules = self.by_line[candidate]
                hit = rules is None or rule in rules
                if hit:
                    self.used.add(candidate)
                return hit
        return False

    def unused(self) -> list[int]:
        """Line numbers of suppressions that never suppressed anything."""
        return sorted(set(self.by_line) - self.used)


class _Linter(ast.NodeVisitor):
    def __init__(self, source: str, filename: str):
        self.source = source
        self.filename = filename
        self.lines = source.splitlines()
        self.suppressions = _Suppressions(source)
        self.findings = FindingList()
        self._fn_stack: list[ast.AST] = []
        #: FHC011 applies only inside the async serving layer.
        self._serve_file = bool(_SERVE_PATH_RE.search(filename))
        #: FHC012 applies only inside the durable-execution layer.
        self._recover_file = bool(_RECOVER_PATH_RE.search(filename))

    # -- helpers -----------------------------------------------------------

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if self.suppressions.active(lineno, rule):
            return
        self.findings.error("lint", rule,
                            f"{self.filename}:{lineno}", message)

    # -- function context --------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node: ast.AST) -> None:
        self._fn_stack.append(node)
        self._check_lazy_escape(node)
        self._check_fault_hook_guards(node)
        self._check_durable_writes(node)
        self.generic_visit(node)
        self._fn_stack.pop()

    # -- FHC001 / FHC002, and FHC003 at the row reduction: calls -----------

    def visit_Call(self, node: ast.Call) -> None:
        fn = self._fn_stack[-1] if self._fn_stack else None
        func = node.func
        if node.args and _ROW_REDUCTION in (
                getattr(func, "id", None), getattr(func, "attr", None)):
            self._check_unreduced_product(node, node.args[0])
        dtypes = [dtype for dtype in _astype_dtypes(node, fn)
                  if dtype in _NARROW_DTYPES | {"uint64", "int_"}]
        if dtypes:
            receiver = node.func.value  # type: ignore[union-attr]
            narrow = [dtype for dtype in dtypes if dtype in _NARROW_DTYPES]
            if _has_object_dtype(receiver, stop_at_mod=True):
                self._flag(
                    "FHC001", node,
                    f"object-dtype value narrowed straight to "
                    f"{' / '.join(dtypes)} without an intervening % "
                    f"reduction")
            elif narrow:
                self._check_narrow(node, " / ".join(narrow))
        elif _is_np_call(node, "uint64") or _is_np_call(node, "int64"):
            for arg in node.args:
                if _has_object_dtype(arg, stop_at_mod=True):
                    self._flag(
                        "FHC001", node,
                        "object-dtype value passed to a fixed-width "
                        "integer constructor without a % reduction")
        elif _is_np_call(node, "minimum"):
            for arg in node.args:
                if _has_object_dtype(arg, stop_at_mod=False):
                    self._flag(
                        "FHC001", node,
                        "np.minimum wraparound clamp applied to an "
                        "object-dtype value — the uint64 conditional-"
                        "subtract idiom does not hold off uint64")
        self.generic_visit(node)

    def _check_narrow(self, node: ast.Call, dtype: str) -> None:
        fn = self._fn_stack[-1] if self._fn_stack else None
        if fn is not None and _has_range_guard(fn, node):
            return
        self._flag(
            "FHC002", node,
            f".astype({dtype}) narrowing with no visible power-of-two "
            f"range guard in the enclosing function — values above the "
            f"target width wrap silently")

    # -- FHC003: unreduced product under % ---------------------------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Mod):
            self._check_unreduced_product(node, node.left)
        self.generic_visit(node)

    def _check_unreduced_product(self, node: ast.AST,
                                 reduced: ast.expr) -> None:
        """FHC003 on ``reduced``, the value a ``%`` or the row
        reduction takes mod q."""
        if not (isinstance(reduced, ast.BinOp)
                and isinstance(reduced.op, ast.Mult)):
            return
        fn = self._fn_stack[-1] if self._fn_stack else None
        if fn is None or not _function_mentions_uint64(
                fn, self.source, self.lines):
            return
        if any(_contains_unreduced_sum(operand)
               for operand in (reduced.left, reduced.right)):
            self._flag(
                "FHC003", node,
                "product of an unreduced sum taken mod q — "
                "the uint64 product may overflow before the "
                "% ever runs; reduce or clamp the sum first")

    # -- FHC004: lazy value escapes unclamped ------------------------------

    def _check_lazy_escape(self, fn: ast.AST) -> None:
        lazy_calls: list[ast.Call] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = None
                if isinstance(node.func, ast.Name):
                    name = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                if name in _LAZY_KERNELS:
                    lazy_calls.append(node)
        if not lazy_calls:
            return
        def _reduces_after(lineno: int) -> bool:
            for node in ast.walk(fn):
                if getattr(node, "lineno", 0) <= lineno:
                    continue
                if isinstance(node, ast.BinOp) and isinstance(
                        node.op, ast.Mod):
                    return True
                if isinstance(node, ast.AugAssign) and isinstance(
                        node.op, ast.Mod):
                    return True
                if (_is_np_call(node, "minimum")
                        or _is_np_call(node, "remainder")):
                    return True
            return False
        for call in lazy_calls:
            if not _reduces_after(call.lineno):
                self._flag(
                    "FHC004", call,
                    "lazy/unclamped stage result is never clamped "
                    "(np.minimum) or reduced (%) afterwards — a >= q "
                    "value may escape this function")

    # -- FHC011: bare backend await in the serving layer -------------------

    @staticmethod
    def _call_name(node: ast.Call) -> str | None:
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        return None

    def visit_Await(self, node: ast.Await) -> None:
        if self._serve_file:
            self._check_serve_await(node)
        self.generic_visit(node)

    def _check_serve_await(self, node: ast.Await) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            name = self._call_name(value)
            if name is not None and (name == _DEADLINE_WRAPPER
                                     or name.endswith("_" + _DEADLINE_WRAPPER)):
                return  # sanctioned: the wrapper owns the timeout
        for sub in ast.walk(value):
            name = None
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            if name is not None and _SERVE_WORK_RE.search(name):
                self._flag(
                    "FHC011", node,
                    f"backend work ({name!r}) awaited outside the "
                    f"deadline/cancellation helper — wrap the awaitable "
                    f"in with_deadline(...) so it cannot outlive the "
                    f"request deadline")
                return

    # -- FHC005: unguarded fault-hook dereference --------------------------

    def _check_fault_hook_guards(self, fn: ast.AST) -> None:
        aliases = _collect_hook_aliases(fn)

        def mentions(node: ast.AST) -> bool:
            return _mentions_hook(node, aliases)

        def on_call(node: ast.Call, guarded: bool) -> None:
            func = node.func
            if guarded or not mentions(func):
                return
            # The install/accessor functions are not dereferences:
            # calling install_fault_hook(x), vpu.install_fault_hook(...)
            # or current_fault_hook() is how hooks are managed, and is
            # legal unguarded.
            if isinstance(func, ast.Name) and func.id.endswith(_FAULT_HOOK):
                return
            if isinstance(func, ast.Attribute) and \
                    func.attr.endswith(_FAULT_HOOK) and \
                    not mentions(func.value):
                return
            self._flag(
                "FHC005", node,
                "fault-hook dereference outside an `is not None` guard — "
                "these hooks must be no-ops when fault injection is "
                "disabled (guard the call with `if <hook> is not None`)")

        _scan_guarded(fn, mentions, on_call)

    # -- FHC012: non-durable write in the recovery layer -------------------

    def _check_durable_writes(self, fn: ast.AST) -> None:
        """Inside ``repro/recover/``, every function that performs a
        ``.write(...)`` must show fsync evidence (an ``os.fsync`` call
        or ``*fsync*`` name) in the same function — the WAL's
        :meth:`append` shape.  Journal appends elsewhere must go
        through that API instead of writing file handles directly."""
        if not self._recover_file:
            return
        writes = [
            node for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "write"
        ]
        if not writes:
            return
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and "fsync" in node.attr:
                return
            if isinstance(node, ast.Name) and "fsync" in node.id:
                return
        for call in writes:
            self._flag(
                "FHC012", call,
                "file write in the recovery layer with no fsync evidence "
                "in this function — journal appends must go through the "
                "fsync'd WriteAheadLog.append() API (a bare write can be "
                "lost on the very crash the journal exists to survive)")


def lint_source(source: str, filename: str = "<string>") -> list[Finding]:
    """Lint one source string; returns the findings."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        findings = FindingList()
        findings.error("lint", "FHC000",
                       f"{filename}:{exc.lineno or 0}",
                       f"syntax error: {exc.msg}")
        return findings.findings
    linter = _Linter(source, filename)
    linter.visit(tree)
    # FHC010: stale waivers (after the full visit, so every suppression
    # had its chance to fire).  Warning severity — a stale comment does
    # not gate CI, it just must not linger unnoticed.
    for lineno in linter.suppressions.unused():
        rules = linter.suppressions.by_line[lineno]
        what = "all rules" if rules is None else ",".join(sorted(rules))
        linter.findings.warning(
            "lint", "FHC010", f"{filename}:{lineno}",
            f"suppression comment ({what}) no longer suppresses any "
            f"finding — remove it or re-justify it")
    return linter.findings.findings


def lint_file(path: str | Path) -> list[Finding]:
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def lint_paths(paths: list[str | Path]) -> list[Finding]:
    """Lint files and/or directories (``*.py``, recursively)."""
    findings: list[Finding] = []
    for entry in paths:
        entry = Path(entry)
        files = sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
        for file in files:
            findings.extend(lint_file(file))
    return findings
