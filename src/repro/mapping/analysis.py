"""Static analysis of compiled VPU programs.

Compiler-side tooling a hardware-software codesign flow needs: resource
histograms, register liveness/pressure, and memory-row footprints —
computed from the instruction stream without executing it.  The
register-file and scratchpad sizing decisions in
:mod:`repro.hwmodel.technology` can be checked against real programs
instead of hand rules.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.isa import Instruction, Load, NetworkPass, Program, Store
from repro.core.vpu import ExecutionStats


@dataclass(frozen=True)
class ProgramAnalysis:
    """Static facts about one program."""

    instruction_count: int
    by_type: dict
    registers_used: frozenset
    peak_live_registers: int
    memory_rows_read: frozenset
    memory_rows_written: frozenset
    network_passes: int
    multiplier_ops: int
    adder_ops: int

    @property
    def register_pressure(self) -> int:
        """Registers any lane's file must provide."""
        return (max(self.registers_used) + 1) if self.registers_used else 0

    @property
    def memory_footprint_rows(self) -> int:
        rows = self.memory_rows_read | self.memory_rows_written
        return (max(rows) + 1) if rows else 0


def _diag_window(instr: Instruction) -> list[int]:
    """Registers a diagonal-read NetworkPass may touch."""
    if isinstance(instr, NetworkPass) and instr.src_rot is not None:
        return list(range(instr.src, instr.src + instr.src_window))
    return []


def analyze_program(program: Program) -> ProgramAnalysis:
    """Single pass over the instruction stream.

    The resource counts are the executor's own booking
    (:meth:`~repro.core.vpu.ExecutionStats.record`)."""
    stats = ExecutionStats()
    registers: set[int] = set()
    reads_mem: set[int] = set()
    writes_mem: set[int] = set()
    # Liveness: walk backwards, a register is live from its last read up
    # to its defining write.
    live: set[int] = set()
    peak = 0
    for instr in reversed(program.instructions):
        for reg in instr.write_regs():
            live.discard(reg)
        for reg in instr.read_regs() + _diag_window(instr):
            live.add(reg)
        peak = max(peak, len(live))
    for instr in program:
        stats.record(instr)
        registers.update(instr.read_regs())
        registers.update(instr.write_regs())
        registers.update(_diag_window(instr))
        if isinstance(instr, Load):
            reads_mem.add(instr.addr)
        if isinstance(instr, Store):
            writes_mem.add(instr.addr)
    return ProgramAnalysis(
        instruction_count=len(program),
        by_type=stats.by_type,
        registers_used=frozenset(registers),
        peak_live_registers=peak,
        memory_rows_read=frozenset(reads_mem),
        memory_rows_written=frozenset(writes_mem),
        network_passes=stats.network_passes,
        multiplier_ops=stats.multiplier_busy,
        adder_ops=stats.adder_busy,
    )


def render_analysis(analysis: ProgramAnalysis, label: str = "") -> str:
    """One-screen summary of an analysis."""
    lines = [f"program analysis{': ' + label if label else ''}"]
    lines.append(f"  instructions      : {analysis.instruction_count}")
    for name, count in sorted(analysis.by_type.items()):
        lines.append(f"    {name:14s}: {count}")
    lines.append(f"  register pressure : {analysis.register_pressure} "
                 f"(peak live {analysis.peak_live_registers})")
    lines.append(f"  memory rows       : {analysis.memory_footprint_rows} "
                 f"({len(analysis.memory_rows_read)} read, "
                 f"{len(analysis.memory_rows_written)} written)")
    lines.append(f"  resource ops      : {analysis.network_passes} network, "
                 f"{analysis.multiplier_ops} mult, {analysis.adder_ops} add")
    return "\n".join(lines)
