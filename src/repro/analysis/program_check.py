"""Abstract interpretation of compiled VPU micro-programs.

:func:`check_program` walks a :class:`repro.core.isa.Program` over
per-lane **value intervals** instead of values.  It walks the program as
:class:`repro.core.vpu.VectorProcessingUnit` decodes it — the lowered
steps its replay loop reads, with their lane routes, constant-table
slots and diagonal-read register vectors — under the program's binding
to ``q`` (:func:`repro.core.vpu.bind_table`), so it sees exactly the
routing and the constants the hardware would use (grouped-CG
sub-networks and diagonal register reads included).  It proves, per
instruction:

* twiddle constants are fully reduced (``< q``), matching the table
  contract, and every slot an instruction names lies inside the bound
  table;
* reads never see an uninitialized register (the mapping compilers must
  route data through loads);
* every instruction is one the unit decodes (a decode fault).

Inputs are reduced residues and every add, subtract and Barrett product
leaves a value ``< q``, so no product can overflow uint64 or break the
Barrett precondition and no stored value can exceed ``q - 1``; the walk
records the largest product it meets as ``max_intermediate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis.findings import FindingList
from repro.analysis.intervals import Interval, IntervalVec
from repro.core.isa import Instruction, Program
from repro.core.vpu import (
    _ADD,
    _BFLY,
    _LOAD,
    _MUL,
    _MUL_SCALAR,
    _MUL_TWIDDLE,
    _NET,
    _NET_DIAG,
    _NTT,
    _STORE,
    _SUB,
    VectorProcessingUnit,
    bind_table,
    step_operands,
)
from repro.mapping.ntt import required_registers


def decode(program: Program, m: int) -> tuple:
    """Lower a program as an ``m``-lane VPU does, without raising.

    Returns ``(lowered, faults)`` (see :meth:`VectorProcessingUnit._lower`).
    The unit has the register file the compilers assume, so a fault-free
    lowering is the one a backend unit keeps on the program and replays.
    """
    unit = VectorProcessingUnit(m, regfile_entries=required_registers(m),
                                memory_rows=1)
    faults: dict = {}
    return unit.lower(program, faults), faults


def _location(pc: int, instr: Instruction) -> str:
    """Where a finding of a micro-program pass points."""
    return f"pc {pc}: {type(instr).__name__}"


class ProgramVerificationError(RuntimeError):
    """Raised by the backend debug hook when a compiled program fails
    verification; carries the full report."""

    def __init__(self, report: "ProgramCheckReport"):
        self.report = report
        lines = [f"program {report.label!r} failed fhecheck "
                 f"({len(report.findings.errors)} errors):"]
        lines += [str(f) for f in report.findings.errors[:8]]
        super().__init__("\n".join(lines))


@dataclass
class ProgramCheckReport:
    """Outcome of one micro-program walk."""

    label: str
    q: int
    m: int
    instructions: int = 0
    #: Largest uint64 intermediate proven anywhere in the program.
    max_intermediate: int = 0
    findings: FindingList = field(default_factory=FindingList)

    @property
    def ok(self) -> bool:
        return self.findings.ok

    def raise_on_error(self) -> None:
        if not self.ok:
            raise ProgramVerificationError(self)


class _Walker:
    """One interval-execution of a lowered program (the VPU's replay
    loop over intervals)."""

    def __init__(self, program: Program, q: int, m: int, faults: dict):
        self.q = q
        self.m = m
        self.binding = bind_table(program, q)
        self.report = ProgramCheckReport(label=program.label or "<program>",
                                         q=q, m=m)
        self.faults = faults
        self.regs: dict[int, IntervalVec] = {}
        self.memory: dict[int, IntervalVec] = {}
        # Contract for rows the program loads but never stored: the
        # caller packs fully reduced residues.
        self.input_row = IntervalVec.reduced(m, q)
        self.pc = 0
        self.instr: Any = None

    # -- finding helpers ---------------------------------------------------

    def _error(self, rule: str, message: str) -> None:
        self.report.findings.error("program", rule,
                                   _location(self.pc, self.instr), message)

    def _note_intermediate(self, hi: int) -> None:
        if hi > self.report.max_intermediate:
            self.report.max_intermediate = hi

    # -- dataflow helpers --------------------------------------------------

    def _read(self, reg: int) -> IntervalVec:
        value = self.regs.get(reg)
        if value is None:
            self._error(
                "P004",
                f"read of register r{reg} before any write; assuming "
                f"[0, q-1]")
            value = IntervalVec.reduced(self.m, self.q)
            self.regs[reg] = value
        return value

    def _mul(self, a: IntervalVec, b: IntervalVec) -> IntervalVec:
        """The vectorized Barrett multiplier on raw register values."""
        q = self.q
        if q >= 1 << 31:
            # Past the uint64 datapath the multiplier reduces its
            # operands and multiplies exact integers: nothing overflows.
            self._note_intermediate((q - 1) ** 2)
            return IntervalVec.reduced(len(a), q)
        self._note_intermediate(a.mul(b).max_hi)
        return IntervalVec.reduced(len(a), q)

    def _add_reduced(self, a: IntervalVec, b: IntervalVec) -> IntervalVec:
        # VPU._add reduces both operands first, so the (< 2q) transient
        # always fits and the result is always < q.
        self._note_intermediate(min(a.max_hi, self.q - 1)
                                + min(b.max_hi, self.q - 1))
        return IntervalVec.reduced(len(a), self.q)

    def _constants(self, table: np.ndarray, slot: slice) -> list[int]:
        """The bound words a slot names, zeros where it runs outside the
        table."""
        words = table[max(slot.start, 0):slot.stop].tolist()
        if slot.start < 0 or len(words) < slot.stop - slot.start:
            self._error(
                "P005",
                f"constant slot [{slot.start}, {slot.stop}) lies outside "
                f"the bound table's {len(table)} words")
            words = [0] * (slot.stop - slot.start)
        return words

    def _twiddles(self, slot: slice) -> IntervalVec:
        twiddles = self._constants(self.binding.twiddles, slot)
        bad = [t for t in twiddles if t >= self.q]
        if bad:
            self._error(
                "P003",
                f"{len(bad)} twiddle(s) not fully reduced mod q={self.q} "
                f"(worst: {max(bad)})")
        return IntervalVec.exact(t % self.q for t in twiddles)

    # -- step semantics ----------------------------------------------------

    def _butterfly(self, x: IntervalVec, dif: bool,
                   const: slice) -> IntervalVec:
        tw = self._twiddles(const)
        u = x.every(0, 2)
        v = x.every(1, 2)
        if dif:
            even = self._add_reduced(u, v)
            # _sub reduces operands, so the multiplier sees [0, q).
            diff = IntervalVec.reduced(self.m // 2, self.q)
            odd = self._mul(diff, tw)
        else:
            t = self._mul(v, tw)
            even = self._add_reduced(u, t)
            odd = IntervalVec.reduced(self.m // 2, self.q)
        return IntervalVec.interleave(even, odd)

    def step(self, instr: Instruction, step: tuple) -> None:
        """Transfer one lowered step ``(op, dst, a, b, const, route,
        config)`` of ``instr`` over the register intervals."""
        self.instr = instr
        op, _, a, b, const, route, _ = step
        q, m = self.q, self.m
        # An undecodable step has nothing to transfer; its fault is P007.
        reads, writes = step_operands(step) if op is not None else ((), ())
        x = [self._read(reg) for reg in reads]
        if op == _ADD:
            out = self._add_reduced(*x)
        elif op == _SUB:
            out = IntervalVec.reduced(m, q)
        elif op == _MUL:
            out = self._mul(*x)
        elif op == _MUL_SCALAR:
            (word,) = self._constants(self.binding.scalars, const)
            scalar = IntervalVec.uniform(m, Interval.const(word % q))
            out = self._mul(x[0], scalar)
        elif op == _MUL_TWIDDLE:
            out = self._mul(x[0], self._twiddles(const))
        elif op == _BFLY:
            out = self._butterfly(x[0], b, const)
        elif op == _NTT and b:
            out = self._butterfly(x[0].permute(route), True, const)
        elif op == _NTT:
            out = self._butterfly(x[0], False, const).permute(route)
        elif op == _NET:
            out = x[0].permute(route)
        elif op == _NET_DIAG:
            # Output lane j is lane route[j] of its own register reads[j].
            lanes = [v.lane(lane) for v, lane in zip(x, route.tolist())]
            out = IntervalVec([iv.lo for iv in lanes], [iv.hi for iv in lanes])
        elif op == _LOAD:
            out = self.memory.get(a, self.input_row)
        elif op == _STORE:
            self.memory[b] = x[0]
        else:
            self._error("P007", str(self.faults[(self.pc, "opcode")]))
        for reg in writes:
            self.regs[reg] = out
        self.report.instructions += 1
        self.pc += 1


def check_program(program: Program, *, q: int, m: int) -> ProgramCheckReport:
    """Interval-verify one compiled micro-program.

    Parameters
    ----------
    program:
        The compiled :class:`~repro.core.isa.Program`.
    q:
        The RNS modulus the program will execute under.
    m:
        Lane count of the target VPU.  Rows the program loads without
        having stored them first hold reduced residues (``< q``).

    Returns a :class:`ProgramCheckReport`; ``report.ok`` is False when
    any error-severity finding fired.
    """
    if q <= 1:
        raise ValueError(f"modulus must exceed 1, got {q}")
    lowered, faults = decode(program, m)
    walker = _Walker(program, q, m, faults)
    for instr, step in zip(program.instructions, lowered.steps, strict=True):
        walker.step(instr, step)
    return walker.report
