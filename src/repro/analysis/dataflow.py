"""Def-use dataflow verification of compiled VPU micro-programs.

:func:`check_dataflow` walks a :class:`repro.core.isa.Program` under the
same dispatch semantics as :class:`repro.core.vpu.VectorProcessingUnit`
— including the diagonal per-lane register reads of the transpose
passes and the mux-level routing learned from the real
:class:`~repro.core.network.InterLaneNetwork` model — but tracks *which*
registers are defined and consumed instead of their value intervals
(that is :mod:`repro.analysis.program_check`'s job).

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
                      read ports or 1 write port in one instruction)
============ ======== =========================================================

``D001`` dedupes per register (the first uninitialized read is reported,
then the register is treated as defined) so one compiler bug yields one
finding instead of a cascade.  In-place updates (``dst == src``) are the
*normal* idiom for CG NTT stages and are not findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.findings import FindingList
from repro.core.isa import Instruction, NetworkPass, NttStage, Program
from repro.core.network import InterLaneNetwork


@dataclass
class DataflowReport:
    """Outcome of one def-use walk over a micro-program."""

    label: str
    m: int
    instructions: int = 0
    #: Distinct registers the program ever writes.
    registers_written: int = 0
    #: Registers still holding an unread (dead) value at program end.
    dead_at_exit: int = 0
    findings: FindingList = field(default_factory=FindingList)

    @property
    def ok(self) -> bool:
        return self.findings.ok


def _loc(pc: int, instr: Instruction) -> str:
    return f"pc {pc}: {type(instr).__name__}"


def check_dataflow(program: Program, *, m: int) -> DataflowReport:
    """Def-use verify one compiled micro-program for an ``m``-lane VPU.

    Returns a :class:`DataflowReport`; ``report.ok`` is False when any
    error-severity finding fired.  Dead writes (``D002``) are warnings —
    they waste cycles but cannot corrupt results.
    """
    if m <= 0 or m & (m - 1):
        raise ValueError(f"lane count must be a power of two, got {m}")
    report = DataflowReport(label=program.label or "<program>", m=m)
    findings = report.findings
    network = InterLaneNetwork(m)
    defined: set[int] = set()
    #: reg -> pc of the last write that no later instruction has read yet.
    unread_writes: dict[int, int] = {}

    for pc, instr in enumerate(program):
        loc = _loc(pc, instr)
        reads = set(instr.data_read_regs(m))
        writes = set(instr.write_regs())

        # D005: the 2R1W port budget the register file enforces at run
        # time (RegisterFile.check_ports), proven statically here.
        port_reads = set(instr.read_regs())
        if len(port_reads) > 2 or len(writes) > 1:
            findings.error(
                "dataflow", "D005", loc,
                f"instruction needs {len(port_reads)} read / "
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
        if isinstance(instr, (NetworkPass, NttStage)):
            route = network.route(instr.config).tolist()
            if sorted(route) != list(range(m)):
                missing = sorted(set(range(m)) - set(route))
                findings.error(
                    "dataflow", "D003", loc,
                    f"network routing is not a permutation of {m} lanes "
                    f"(lanes {missing[:8]} dropped)")

        # D004: diagonal reads gather one register per lane; writing into
        # that window in the same traversal is a WAR hazard in hardware.
        if isinstance(instr, NetworkPass) and instr.src_rot is not None:
            assert instr.src_window is not None
            window = {instr.src + (lane + instr.src_rot) % instr.src_window
                      for lane in range(m)}
            if instr.dst in window:
                findings.error(
                    "dataflow", "D004", loc,
                    f"destination r{instr.dst} lies inside the diagonal "
                    f"source window r{instr.src}..r{instr.src + instr.src_window - 1}")

        # D002: overwrite of a value nothing read.
        for reg in sorted(writes):
            stale = unread_writes.get(reg)
            if stale is not None:
                findings.warning(
                    "dataflow", "D002", _loc(stale, program.instructions[stale]),
                    f"write to r{reg} is dead: overwritten at pc {pc} "
                    f"with no intervening read")
            unread_writes[reg] = pc
            defined.add(reg)

        report.instructions += 1

    report.registers_written = len(defined)
    report.dead_at_exit = len(unread_writes)
    for reg, pc in sorted(unread_writes.items()):
        findings.warning(
            "dataflow", "D002", _loc(pc, program.instructions[pc]),
            f"write to r{reg} is dead: never read before program end")
    return report
