"""Abstract interpretation of compiled VPU micro-programs.

:func:`check_program` walks a :class:`repro.core.isa.Program` exactly as
:class:`repro.core.vpu.VectorProcessingUnit` would execute it, but over
per-lane **value intervals** instead of values.  It proves, per
instruction:

* every uint64 intermediate of the vectorized Barrett datapath fits
  (``z = a * b`` with *raw* register values — the vectorized multiplier
  does not pre-reduce its operands);
* the Barrett precondition ``z < q**2`` holds, which is what guarantees
  the two-correction reduction bound;
* twiddle constants are fully reduced (``< q``), matching the table
  contract;
* reads never see an uninitialized register (the mapping compilers must
  route data through loads);
* every architecturally visible value — anything stored back to memory —
  is ``< q``, or ``< 2q`` where the program declares lazy output.

Network routing is resolved through the *actual* mux-level
:class:`~repro.core.network.InterLaneNetwork` model: the walker asks it
for each pass's lane route (:meth:`InterLaneNetwork.route`, the table
the executor replays), so the interval flow sees exactly the routing the
hardware would perform (including grouped-CG sub-networks and diagonal
register reads).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.findings import Finding, FindingList
from repro.analysis.intervals import U64_MAX, Interval, IntervalVec
from repro.core.isa import (
    Butterfly,
    Instruction,
    Load,
    NetworkPass,
    NttStage,
    Program,
    Store,
    VAdd,
    VMul,
    VMulScalar,
    VMulTwiddle,
    VSub,
)
from repro.core.network import InterLaneNetwork


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
    """One interval-execution of a program (mirrors the VPU's replay
    loop)."""

    def __init__(self, program: Program, q: int, m: int,
                 input_bound: int | None, lazy_output: bool):
        self.q = q
        self.m = m
        self.report = ProgramCheckReport(label=program.label or "<program>",
                                         q=q, m=m)
        self.network = InterLaneNetwork(m)
        self.regs: dict[int, IntervalVec] = {}
        self.memory: dict[int, IntervalVec] = {}
        # Contract for rows the program loads but never stored: the
        # caller packs fully reduced residues unless it says otherwise.
        self.input_row = IntervalVec.uniform(
            m, Interval.upto(input_bound if input_bound is not None
                             else q - 1))
        self.visible_bound = 2 * q - 1 if lazy_output else q - 1
        self.pc = 0
        self.instr: Instruction | None = None

    # -- finding helpers ---------------------------------------------------

    def _loc(self) -> str:
        return f"pc {self.pc}: {type(self.instr).__name__}"

    def _error(self, rule: str, message: str) -> None:
        self.report.findings.error("program", rule, self._loc(), message)

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

    def _mul(self, a: IntervalVec, b: IntervalVec, what: str) -> IntervalVec:
        """The vectorized Barrett multiplier on raw register values."""
        q = self.q
        z = a.mul(b)
        self._note_intermediate(z.max_hi)
        if z.max_hi > U64_MAX:
            self._error(
                "P001",
                f"{what}: product bound {z.max_hi} exceeds uint64 "
                f"(operands up to {a.max_hi} and {b.max_hi})")
        if z.max_hi >= q * q:
            self._error(
                "P002",
                f"{what}: product bound {z.max_hi} breaks the Barrett "
                f"precondition z < q^2 = {q * q}")
        # Barrett output is fully reduced when the precondition holds.
        return IntervalVec.reduced(len(a), q)

    def _add_reduced(self, a: IntervalVec, b: IntervalVec) -> IntervalVec:
        # VPU._add reduces both operands first, so the (< 2q) transient
        # always fits and the result is always < q.
        self._note_intermediate(min(a.max_hi, self.q - 1)
                                + min(b.max_hi, self.q - 1))
        return IntervalVec.reduced(len(a), self.q)

    def _twiddles(self, twiddles: tuple[int, ...],
                  expect: int) -> IntervalVec:
        if len(twiddles) != expect:
            self._error(
                "P005",
                f"twiddle vector has {len(twiddles)} entries, lane "
                f"geometry needs {expect}")
            twiddles = tuple(twiddles)[:expect] + (0,) * (expect - len(twiddles))
        bad = [int(t) for t in twiddles if not 0 <= int(t) < self.q]
        if bad:
            self._error(
                "P003",
                f"{len(bad)} twiddle(s) not fully reduced mod q={self.q} "
                f"(worst: {max(bad)})")
        return IntervalVec.exact(int(t) % self.q for t in twiddles)

    # -- instruction semantics ---------------------------------------------

    def _butterfly(self, x: IntervalVec, kind: str,
                   twiddles: tuple[int, ...]) -> IntervalVec:
        tw = self._twiddles(twiddles, self.m // 2)
        u = x.every(0, 2)
        v = x.every(1, 2)
        if kind == "dif":
            even = self._add_reduced(u, v)
            # _sub reduces operands, so the multiplier sees [0, q).
            diff = IntervalVec.reduced(self.m // 2, self.q)
            odd = self._mul(diff, tw, "dif butterfly twiddle product")
        else:
            t = self._mul(v, tw, "dit butterfly twiddle product")
            even = self._add_reduced(u, t)
            odd = IntervalVec.reduced(self.m // 2, self.q)
        return IntervalVec.interleave(even, odd)

    def step(self, instr: Instruction) -> None:
        self.instr = instr
        q, m = self.q, self.m
        if isinstance(instr, VAdd):
            self.regs[instr.dst] = self._add_reduced(
                self._read(instr.a), self._read(instr.b))
        elif isinstance(instr, VSub):
            self._read(instr.a)
            self._read(instr.b)
            self.regs[instr.dst] = IntervalVec.reduced(m, q)
        elif isinstance(instr, VMul):
            self.regs[instr.dst] = self._mul(
                self._read(instr.a), self._read(instr.b), "VMul")
        elif isinstance(instr, VMulScalar):
            scalar = IntervalVec.uniform(
                m, Interval.const(int(instr.scalar) % q))
            self.regs[instr.dst] = self._mul(
                self._read(instr.a), scalar, "VMulScalar")
        elif isinstance(instr, VMulTwiddle):
            tw = self._twiddles(instr.twiddles, m)
            self.regs[instr.dst] = self._mul(
                self._read(instr.a), tw, "VMulTwiddle")
        elif isinstance(instr, Butterfly):
            self.regs[instr.dst] = self._butterfly(
                self._read(instr.src), instr.kind, instr.twiddles)
        elif isinstance(instr, NttStage):
            x = self._read(instr.src)
            route = self.network.route(instr.config)
            if instr.kind == "dif":
                out = self._butterfly(x.permute(route), "dif",
                                      instr.twiddles)
            else:
                half = self._butterfly(x, "dit", instr.twiddles)
                out = half.permute(route)
            self.regs[instr.dst] = out
        elif isinstance(instr, NetworkPass):
            if instr.src_rot is None:
                value = self._read(instr.src)
            else:
                # Diagonal read: lane l fetches register
                # src + (l + rot) % window at its own lane position.
                assert instr.src_window is not None
                lo: list[int] = []
                hi: list[int] = []
                for lane in range(m):
                    reg = instr.src + (lane + instr.src_rot) % instr.src_window
                    lane_iv = self._read(reg).lane(lane)
                    lo.append(lane_iv.lo)
                    hi.append(lane_iv.hi)
                value = IntervalVec(lo, hi)
            route = self.network.route(instr.config)
            self.regs[instr.dst] = value.permute(route)
        elif isinstance(instr, Load):
            self.regs[instr.dst] = self.memory.get(instr.addr,
                                                   self.input_row)
        elif isinstance(instr, Store):
            value = self._read(instr.src)
            if value.max_hi > self.visible_bound:
                self._error(
                    "P006",
                    f"stored value bound {value.max_hi} exceeds the "
                    f"architecturally visible limit {self.visible_bound} "
                    f"(q={q})")
            self.memory[instr.addr] = value
        else:
            self._error("P007", f"unknown instruction {instr!r}")
        self.report.instructions += 1
        self.pc += 1


def check_program(program: Program, *, q: int, m: int,
                  input_bound: int | None = None,
                  lazy_output: bool = False) -> ProgramCheckReport:
    """Interval-verify one compiled micro-program.

    Parameters
    ----------
    program:
        The compiled :class:`~repro.core.isa.Program`.
    q:
        The RNS modulus the program will execute under.
    m:
        Lane count of the target VPU.
    input_bound:
        Inclusive bound on memory rows the program loads without having
        stored them first (default ``q - 1`` — callers pack reduced
        residues).
    lazy_output:
        Declare the program's stored values lazily reduced: visible
        values may reach ``2q - 1`` instead of ``q - 1``.

    Returns a :class:`ProgramCheckReport`; ``report.ok`` is False when
    any error-severity finding fired.
    """
    if q <= 1:
        raise ValueError(f"modulus must exceed 1, got {q}")
    if m <= 0 or m & (m - 1):
        raise ValueError(f"lane count must be a power of two, got {m}")
    walker = _Walker(program, q, m, input_bound, lazy_output)
    for instr in program:
        walker.step(instr)
    return walker.report
