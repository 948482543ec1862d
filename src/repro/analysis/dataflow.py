"""Def-use facts of compiled VPU micro-programs.

:func:`analyze_dataflow` walks a :class:`repro.core.isa.Program` as
:class:`repro.core.vpu.VectorProcessingUnit` decodes it — the lowered
steps a unit with the register file the compilers assume keeps on the
program and replays — and tracks which registers are defined and
consumed.  The roles are :func:`repro.core.vpu.step_operands`, the
def-use model the VPU's lock-step renaming reads too.  The report gives
the program's register and memory demands: registers used, peak live
registers, rows read and written, writes nothing reads, and the
lowering's resource counts.  It reports no findings: every defect a
def-use rule could name fails a VPU bit-identity, cycle-count or
lowering test (EXPERIMENTS.md, "What each fhecheck rule catches").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.isa import Program
from repro.core.vpu import (
    _LOAD,
    _STORE,
    ExecutionStats,
    VectorProcessingUnit,
    step_operands,
)
from repro.mapping.ntt import required_registers


@dataclass
class DataflowReport:
    """Register / memory demands of one def-use walk.

    The demands are what a lane's register file and the scratchpad must
    provide for the program."""

    label: str
    m: int
    instructions: int = 0
    #: Distinct registers the program ever writes.
    registers_written: int = 0
    #: Registers still holding an unread (dead) value at program end.
    dead_at_exit: int = 0
    #: Registers any step reads or writes.
    registers_used: frozenset = frozenset()
    #: Most registers holding a value some later step reads, at once.
    peak_live_registers: int = 0
    memory_rows_read: frozenset = frozenset()
    memory_rows_written: frozenset = frozenset()
    #: The lowering's resource counts: one cycle per instruction.
    stats: ExecutionStats = field(default_factory=ExecutionStats)

    @property
    def register_pressure(self) -> int:
        """Registers any lane's file must provide."""
        return max(self.registers_used, default=-1) + 1

    @property
    def memory_footprint_rows(self) -> int:
        """Scratchpad rows the program needs."""
        return max(self.memory_rows_read | self.memory_rows_written,
                   default=-1) + 1


def analyze_dataflow(program: Program, *, m: int) -> DataflowReport:
    """Def-use facts of one compiled micro-program on an ``m``-lane VPU.

    The unit's lowering refuses a program it cannot run (it raises)."""
    unit = VectorProcessingUnit(m, regfile_entries=required_registers(m),
                                memory_rows=1)
    lowered = unit.lower(program)
    report = DataflowReport(label=program.label or "<program>", m=m)
    report.stats.add(lowered.stats)
    operands = [tuple(map(set, step_operands(step)))
                for step in lowered.steps]
    report.instructions = len(operands)
    unread: set[int] = set()  # written, and not read since
    for reads, writes in operands:
        unread = unread - reads | writes
    report.dead_at_exit = len(unread)
    report.registers_written = len(set().union(*(w for _, w in operands)))

    # Liveness, walking backwards: a register is live from its defining
    # write to its last read.
    live: set[int] = set()
    for reads, writes in reversed(operands):
        live = live - writes | reads
        report.peak_live_registers = max(report.peak_live_registers,
                                         len(live))
    report.registers_used = frozenset().union(*(r | w for r, w in operands))
    report.memory_rows_read = frozenset(
        step[2] for step in lowered.steps if step[0] == _LOAD)
    report.memory_rows_written = frozenset(
        step[3] for step in lowered.steps if step[0] == _STORE)
    return report
