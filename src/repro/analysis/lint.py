"""Repository-specific AST lint rules (the ``fhecheck lint`` pass).

These are *heuristic* rules targeting the failure modes this codebase
has actually paid for in review time — four of them, the stale-waiver
report FHC010 included, each encoding one way the uint64 fast paths
(or the layers around them) silently go wrong where no test would see
it.  The gaps in the numbering are rules deleted when a refactor made
what they policed unwritable, or when every defect they caught at a
product site also failed a test (DESIGN.md and EXPERIMENTS.md say
which and how).

``FHC003`` **unreduced product under %** — ``(a ± b) * c % q`` in
    uint64-handling code, or the same product handed to the row
    reduction ``reduce_rows``: the product of an unreduced sum can
    exceed uint64 *before* the reduction ever runs.  Operands already
    reduced by an inner ``%`` are exempt.

``FHC005`` **unguarded fault-hook dereference** — a method is invoked
    on a fault-injection hook (``*fault_hook`` attributes/names, or
    local aliases assigned from them, e.g.
    ``hook = self.fault_hook`` / ``hook = current_fault_hook()``)
    outside an ``if <hook> is not None`` guard.  Injection hooks must be
    exact no-ops when disabled — one predictable branch, zero modeled
    cycles — so every dereference needs the guard.  Calling the
    installer/accessor functions themselves
    (``install_fault_hook(...)``, ``current_fault_hook()``) is exempt.

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
``# fhecheck: ok=FHC003`` (one rule) to the offending line — or to the
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

#: The row reduction (:func:`repro.fhe.polynomial.reduce_rows`): its
#: first argument is checked by FHC003 like the left side of a ``%``.
_ROW_REDUCTION = "reduce_rows"
#: Files subject to FHC012: the durable-execution layer.
_RECOVER_PATH_RE = re.compile(r"repro[/\\]recover[/\\]")


def _contains_unreduced_sum(node: ast.expr) -> bool:
    """Is this multiplicand syntactically an un-reduced sum/difference?"""
    return (isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.Add, ast.Sub)))


def _function_mentions_uint64(fn: ast.AST, source: str) -> bool:
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
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
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
        self.suppressions = _Suppressions(source)
        self.findings = FindingList()
        self._fn_stack: list[ast.AST] = []
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
        self._check_fault_hook_guards(node)
        self._check_durable_writes(node)
        self.generic_visit(node)
        self._fn_stack.pop()

    # -- FHC003: unreduced product under %, or at the row reduction -------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if node.args and _ROW_REDUCTION in (
                getattr(func, "id", None), getattr(func, "attr", None)):
            self._check_unreduced_product(node, node.args[0])
        self.generic_visit(node)

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
        if fn is None or not _function_mentions_uint64(fn, self.source):
            return
        if any(_contains_unreduced_sum(operand)
               for operand in (reduced.left, reduced.right)):
            self._flag(
                "FHC003", node,
                "product of an unreduced sum taken mod q — "
                "the uint64 product may overflow before the "
                "% ever runs; reduce or clamp the sum first")

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
    """Lint one source string; returns the findings.

    A source that does not parse raises :class:`SyntaxError`."""
    tree = ast.parse(source, filename=filename)
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
