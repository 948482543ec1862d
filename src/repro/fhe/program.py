"""Ring programs: the one module that knows what a recorded program is.

A program is a sequence of :class:`Op` values; op ``i`` produces value
``i`` and ``srcs`` name earlier values.  :data:`OP_TABLE` has one row
per op kind — arity, whether it draws from the input feed, which schemes
support it and how it runs on a scheme context — and the abstract
interpreter (:func:`repro.analysis.ctstate.check_sequence`) reads the
same rows.  The journal and the checkpoints get their view of a program
from :func:`feed_count`, :func:`sink_indices`, :func:`live_set`,
:func:`ops_digest` and :func:`op_to_row`.

:class:`ProgramExecutor` is the only code that executes an op.  It is
built from a ``check_sequence`` verdict, not from ops, and refuses to
exist for a verdict with findings or a feed of the wrong length — an
unverified or under-fed execution cannot be written down.

This module sits below the checker: it imports nothing from
:mod:`repro.analysis`, :mod:`repro.recover` or :mod:`repro.serve`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Protocol, Sequence

import numpy as np

from repro.fhe.ckks import Ciphertext
from repro.fhe.rlwe import tensor

__all__ = [
    "OP_TABLE", "SCHEMES", "Op", "OpSpec", "ProgramExecutor", "Verdict",
    "feed_count", "live_set", "op_to_row", "ops_digest", "scheme_of",
    "sink_indices",
]

SCHEMES = ("ckks", "bgv", "bfv")


@dataclass(frozen=True)
class Op:
    """One recorded scheme operation.

    ``srcs`` are indices of earlier ops in the sequence; ``arg`` carries
    the rotation step count (``rotate``) or the target level
    (``mod_reduce``); ``label`` names a position for callers that look
    one up (it is journaled but is not part of :func:`ops_digest`).
    """

    kind: str
    srcs: tuple[int, ...] = ()
    arg: int | None = None
    label: str = ""


@dataclass(frozen=True)
class OpSpec:
    """One row of :data:`OP_TABLE`."""

    #: Number of source values.
    arity: int
    #: True when the op also draws one array from the input feed.
    feeds: bool
    #: ``scheme -> run(ctx, op, *sources[, fed array])``; a scheme with
    #: no entry does not support the kind.
    run: Mapping[str, Callable[..., Any]]


def _row(arity: int, run: Callable[..., Any],
         schemes: tuple[str, ...] = SCHEMES, feeds: bool = False) -> OpSpec:
    return OpSpec(arity, feeds, dict.fromkeys(schemes, run))


def _tensor(ctx: Any, op: Op, a: Any, b: Any) -> Any:
    """The unrelinearized 3-part product ``multiply`` folds back."""
    return Ciphertext(tensor(a, b), a.scale * b.scale)


_CKKS = ("ckks",)

#: Every op kind a program may contain.  Multiplications run with the
#: scheme's implicit follow-up (rescale / modulus switch) turned off: a
#: program spells those out as ops of their own.
OP_TABLE: dict[str, OpSpec] = {
    "encrypt": _row(0, lambda ctx, op, x: ctx.encrypt(x), feeds=True),
    "add": _row(2, lambda ctx, op, a, b: ctx.add(a, b)),
    "sub": _row(2, lambda ctx, op, a, b: ctx.sub(a, b)),
    "multiply": OpSpec(2, False, {
        "ckks": lambda ctx, op, a, b: ctx.multiply(a, b, rescale_after=False),
        "bgv": lambda ctx, op, a, b: ctx.multiply(a, b, switch_modulus=False),
        "bfv": lambda ctx, op, a, b: ctx.multiply(a, b),
    }),
    "multiply_plain": OpSpec(1, True, {
        "ckks": lambda ctx, op, a, x: ctx.multiply_plain(
            a, x, rescale_after=False),
        "bgv": lambda ctx, op, a, x: ctx.multiply_plain(a, x),
        "bfv": lambda ctx, op, a, x: ctx.multiply_plain(a, x),
    }),
    "tensor": _row(2, _tensor, _CKKS),
    "relinearize": _row(1, lambda ctx, op, a: ctx.relinearize(a), _CKKS),
    "rescale": _row(1, lambda ctx, op, a: ctx.rescale(a), _CKKS),
    "rotate": _row(
        1, lambda ctx, op, a: ctx.rotate(a, 1 if op.arg is None else op.arg),
        ("ckks", "bgv")),
    "conjugate": _row(1, lambda ctx, op, a: ctx.conjugate(a), _CKKS),
    "mod_reduce": _row(
        1, lambda ctx, op, a: ctx.mod_reduce(
            a, a.level - 1 if op.arg is None else op.arg),
        _CKKS),
    "mod_switch": _row(1, lambda ctx, op, a: ctx.mod_switch(a), ("bgv",)),
    "ntt": _row(
        1, lambda ctx, op, a: Ciphertext([p.to_eval() for p in a.parts],
                                         a.scale),
        _CKKS),
    "intt": _row(
        1, lambda ctx, op, a: Ciphertext([p.to_coeff() for p in a.parts],
                                         a.scale),
        _CKKS),
}


def scheme_of(ctx: Any) -> str:
    """The scheme tag (``ckks`` / ``bgv`` / ``bfv``) a context declares
    as ``scheme``; :class:`TypeError` when it declares none."""
    scheme = getattr(ctx, "scheme", None)
    if scheme not in SCHEMES:
        raise TypeError(f"context {ctx!r} declares no scheme tag "
                        f"(expected scheme = one of {SCHEMES})")
    return scheme


def feed_count(ops: Sequence[Op]) -> int:
    """How many input arrays the program draws (one per feeding op)."""
    return sum(OP_TABLE[op.kind].feeds for op in ops)


def sink_indices(ops: Sequence[Op]) -> list[int]:
    """Values no op consumes — the run's outputs."""
    consumed = {src for op in ops for src in op.srcs}
    return [i for i in range(len(ops)) if i not in consumed]


def live_set(ops: Sequence[Op], boundary: int) -> list[int]:
    """Value indices that must survive a checkpoint at ``boundary``.

    A value ``i <= boundary`` is live when a later op reads it, or when
    nothing ever reads it (a sink — it is an output of the run).
    """
    live = {src for op in ops[boundary + 1:] for src in op.srcs}
    live.update(sink_indices(ops))
    return [index for index in range(boundary + 1) if index in live]


def ops_digest(ops: Sequence[Op], scheme: str) -> str:
    """Digest pinning the program a journal/checkpoint belongs to."""
    h = hashlib.sha256()
    h.update(scheme.encode())
    for op in ops:
        h.update(repr((op.kind, op.srcs, op.arg)).encode())
    return h.hexdigest()


def op_to_row(op: Op) -> list[Any]:
    """The JSON row an op is journaled as (``BEGIN``'s ``ops`` field)."""
    return [op.kind, list(op.srcs), op.arg, op.label]


class Verdict(Protocol):
    """What the executor reads of a ``check_sequence`` report
    (:class:`repro.analysis.ctstate.CtStateReport`)."""

    label: str
    scheme: str
    ops: tuple[Op, ...]

    def raise_on_error(self) -> None: ...


class ProgramExecutor:
    """Positions of one checked program, executable on one context.

    ``inputs`` supplies one array per feeding op (``encrypt`` /
    ``multiply_plain``), in program order.  Nothing executes here; a
    verdict with findings or a feed of the wrong length raises before an
    instance exists.
    """

    def __init__(self, report: Verdict, ctx: Any,
                 inputs: Sequence[Any]):
        report.raise_on_error()
        self.ops = report.ops
        feeding = [index for index, op in enumerate(self.ops)
                   if OP_TABLE[op.kind].feeds]
        if len(inputs) != len(feeding):
            raise ValueError(
                f"program {report.label!r} draws {len(feeding)} feed "
                f"value(s) (one per encrypt / multiply_plain) but "
                f"{len(inputs)} input(s) were supplied")
        self._ctx = ctx
        self._run = [OP_TABLE[op.kind].run[report.scheme] for op in self.ops]
        self._fed = {index: np.asarray(entry)
                     for index, entry in zip(feeding, inputs)}

    def at(self, values: Sequence[Any], index: int) -> Any:
        """Execute position ``index`` and return its value.

        ``values`` holds the results of earlier positions and is only
        read, so a position can be re-executed any number of times.
        """
        op = self.ops[index]
        operands = [values[src] for src in op.srcs]
        if index in self._fed:
            operands.append(self._fed[index])
        return self._run[index](self._ctx, op, *operands)

    def run(self, values: list[Any] | None = None, *, start: int = 0,
            before: Callable[[int], None] | None = None,
            after: Callable[[int, Any], None] | None = None) -> list[Any]:
        """Execute positions ``start..`` in order; returns the value table.

        ``values`` is filled in place (a fresh table by default; a
        resumed run passes the one its checkpoint restored).
        ``before(index)`` runs ahead of each op and ``after(index,
        value)`` once its value is in the table.
        """
        if values is None:
            values = [None] * len(self.ops)
        for index in range(start, len(self.ops)):
            if before is not None:
                before(index)
            values[index] = self.at(values, index)
            if after is not None:
                after(index, values[index])
        return values
