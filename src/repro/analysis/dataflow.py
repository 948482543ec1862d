"""Def-use dataflow verification of compiled VPU micro-programs.

:func:`check_dataflow` walks a :class:`repro.core.isa.Program` as
:class:`repro.core.vpu.VectorProcessingUnit` decodes it — the lowered
steps :mod:`repro.analysis.program_check` walks too, with their operand
roles, lane routes and diagonal-read register vectors — but tracks
*which* registers are defined and consumed instead of their value
intervals.  The roles are :func:`repro.core.vpu.step_operands`, the def-use
model the VPU's lock-step renaming reads too.  From the same walk the
report gives the program's register and memory demands: registers used,
peak live registers, rows read and written, and the lowering's resource
counts.

Rules
-----

============ ======== =========================================================
``D001``     error    read of a register no instruction has written
``D002``     warning  write whose value is overwritten (or the program ends)
                      without any intervening read — dead code in the compiler
``D003``     error    a network routing table is not a lane permutation (some
                      lane's value is dropped or duplicated by the muxes)
``D004``     error    diagonal-read WAR hazard: the destination register lies
                      inside the source window, so in-flight lanes would
                      observe the partially overwritten row
``D005``     error    register-file port budget exceeded (more than 2 distinct
                      read ports or 1 write port in one instruction: the
                      lowering's port check failed)
============ ======== =========================================================

``D001`` dedupes per register (the first uninitialized read is reported,
then the register is treated as defined) so one compiler bug yields one
finding instead of a cascade.  In-place updates (``dst == src``) are the
*normal* idiom for CG NTT stages and are not findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.findings import FindingList
from repro.analysis.program_check import _location, decode
from repro.core.isa import Program
from repro.core.vpu import _LOAD, _NET_DIAG, _STORE, ExecutionStats, step_operands


@dataclass
class DataflowReport:
    """Findings and register / memory demands of one def-use walk.

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
    findings: FindingList = field(default_factory=FindingList)

    @property
    def ok(self) -> bool:
        return self.findings.ok

    @property
    def register_pressure(self) -> int:
        """Registers any lane's file must provide."""
        return max(self.registers_used, default=-1) + 1

    @property
    def memory_footprint_rows(self) -> int:
        """Scratchpad rows the program needs."""
        return max(self.memory_rows_read | self.memory_rows_written,
                   default=-1) + 1


def check_dataflow(program: Program, *, m: int) -> DataflowReport:
    """Def-use verify one compiled micro-program for an ``m``-lane VPU.

    Returns a :class:`DataflowReport`; ``report.ok`` is False when any
    error-severity finding fired.  Dead writes (``D002``) are warnings —
    they waste cycles but cannot corrupt results.  The report's register
    and memory facts hold for any program, clean or not.
    """
    lowered, faults = decode(program, m)
    report = DataflowReport(label=program.label or "<program>", m=m)
    report.stats.add(lowered.stats)
    findings = report.findings
    operands = [tuple(map(set, step_operands(step)))
                for step in lowered.steps]
    defined: set[int] = set()
    #: reg -> pc of the last write that no later instruction has read yet.
    unread_writes: dict[int, int] = {}

    for pc, (instr, step, (reads, writes)) in enumerate(zip(
            program.instructions, lowered.steps, operands, strict=True)):
        loc = _location(pc, instr)
        op, dst, _, _, _, route, _ = step

        # D005: the 2R1W port budget the register file enforces at run
        # time (RegisterFile.check_ports), a fault of the lowering.
        if (pc, "ports") in faults:
            findings.error(
                "dataflow", "D005", loc,
                f"instruction needs {len(set(instr.read_regs()))} read / "
                f"{len(writes)} write ports; the lanes are 2R1W")

        # D001: reads of never-written registers.
        for reg in sorted(reads):
            if reg not in defined:
                findings.error(
                    "dataflow", "D001", loc,
                    f"read of register r{reg} before any write")
                defined.add(reg)  # report once per register, not per read
            unread_writes.pop(reg, None)

        # D003: every routed configuration must be a lane permutation.
        if route is not None and sorted(route.tolist()) != list(range(m)):
            missing = sorted(set(range(m)) - set(route.tolist()))
            findings.error(
                "dataflow", "D003", loc,
                f"network routing is not a permutation of {m} lanes "
                f"(lanes {missing[:8]} dropped)")

        # D004: diagonal reads gather one register per lane; writing into
        # that window in the same traversal is a WAR hazard in hardware.
        if op == _NET_DIAG and dst in reads:
            findings.error(
                "dataflow", "D004", loc,
                f"destination r{dst} lies inside the diagonal "
                f"source window r{min(reads)}..r{max(reads)}")

        # D002: overwrite of a value nothing read.
        for reg in sorted(writes):
            stale = unread_writes.get(reg)
            if stale is not None:
                findings.warning(
                    "dataflow", "D002", _location(stale, program.instructions[stale]),
                    f"write to r{reg} is dead: overwritten at pc {pc} "
                    f"with no intervening read")
            unread_writes[reg] = pc
            defined.add(reg)

        report.instructions += 1

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
    report.registers_written = len(defined)
    report.dead_at_exit = len(unread_writes)
    for reg, pc in sorted(unread_writes.items()):
        findings.warning(
            "dataflow", "D002", _location(pc, program.instructions[pc]),
            f"write to r{reg} is dead: never read before program end")
    return report
