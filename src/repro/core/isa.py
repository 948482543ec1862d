"""The VPU's vector instruction set.

Every instruction operates on whole register rows (one word per lane,
SIMD) and respects the per-lane 2R1W register-file port budget.  The
compilers in :mod:`repro.mapping` emit :class:`Program` objects; the
executor in :mod:`repro.core.vpu` runs them and accounts cycles.

An instruction names constants by their slot in its program's table,
which says what each *is* for any prime (a power of a ``2n``-th root of
unity ``psi``, or an inverse ``k^{-1}``); binding a prime
(:func:`repro.core.vpu.bind_table`) fills the twiddle SRAM the lanes read
"from the register file in one of the two lanes", at one operand read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.network import NetworkConfig


@dataclass(frozen=True)
class Instruction:
    """Base class for all VPU instructions."""

    def read_regs(self) -> list[int]:
        return []

    def write_regs(self) -> list[int]:
        return []

    #: Does this instruction occupy the modular multipliers?
    uses_multiplier: bool = field(default=False, init=False, repr=False)
    #: Does this instruction occupy the modular adders?
    uses_adder: bool = field(default=False, init=False, repr=False)
    #: Does this instruction traverse the inter-lane network?
    uses_network: bool = field(default=False, init=False, repr=False)


@dataclass(frozen=True)
class _BinaryOp(Instruction):
    dst: int
    a: int
    b: int

    def read_regs(self) -> list[int]:
        return [self.a, self.b]

    def write_regs(self) -> list[int]:
        return [self.dst]


@dataclass(frozen=True)
class VAdd(_BinaryOp):
    """Element-wise modular addition: ``dst = a + b mod q``."""

    uses_adder = True


@dataclass(frozen=True)
class VSub(_BinaryOp):
    """Element-wise modular subtraction: ``dst = a - b mod q``."""

    uses_adder = True


@dataclass(frozen=True)
class VMul(_BinaryOp):
    """Element-wise modular multiplication: ``dst = a * b mod q``."""

    uses_multiplier = True


@dataclass(frozen=True)
class VMulScalar(Instruction):
    """Multiply by a scalar word: ``dst = a * scalars[word] mod q``."""

    dst: int
    a: int
    word: int
    uses_multiplier = True

    def read_regs(self) -> list[int]:
        return [self.a]

    def write_regs(self) -> list[int]:
        return [self.dst]


@dataclass(frozen=True)
class VMulTwiddle(Instruction):
    """Multiply a register by a twiddle row (``m`` words from ``row``).

    Used for the element-wise twiddle passes between NTT dimensions
    (§IV-A) and the psi-folding of negacyclic transforms.
    """

    dst: int
    a: int
    row: int
    uses_multiplier = True

    def read_regs(self) -> list[int]:
        return [self.a, self.dst]  # twiddles stream through port 2

    def write_regs(self) -> list[int]:
        return [self.dst]


@dataclass(frozen=True)
class Butterfly(Instruction):
    """Paired-lane butterfly on adjacent lanes (Fig. 1c).

    For each lane pair ``(2j, 2j+1)`` holding ``(u, v)``:

    * ``dif``: ``out = (u + v, (u - v) * w_j)``
    * ``dit``: ``out = (u + w_j*v, u - w_j*v)``

    ``w_j`` is word ``row + j`` of the twiddle table (one per pair).
    """

    kind: str
    dst: int
    src: int
    row: int
    uses_multiplier = True
    uses_adder = True

    def __post_init__(self) -> None:
        if self.kind not in ("dit", "dif"):
            raise ValueError(f"kind must be 'dit' or 'dif', got {self.kind}")

    def read_regs(self) -> list[int]:
        return [self.src]

    def write_regs(self) -> list[int]:
        return [self.dst]


@dataclass(frozen=True)
class NttStage(Instruction):
    """One fused constant-geometry NTT stage (Fig. 1c + Fig. 2).

    In hardware the CG network stage feeds the paired-lane butterflies
    directly, so routing and arithmetic retire together in one cycle:

    * ``dif``: route through the CG-DIF gather, then DIF-butterfly the
      adjacent pairs;
    * ``dit``: DIT-butterfly the adjacent pairs, then route through the
      CG-DIT scatter.

    ``group_size`` splits the CG stage into independent sub-networks for
    NTT dimensions shorter than the lane count (§IV-A).
    """

    kind: str
    dst: int
    src: int
    row: int
    group_size: int | None = None
    uses_multiplier = True
    uses_adder = True
    uses_network = True

    def __post_init__(self) -> None:
        if self.kind not in ("dit", "dif"):
            raise ValueError(f"kind must be 'dit' or 'dif', got {self.kind}")

    @property
    def config(self) -> NetworkConfig:
        """The CG traversal fused into this stage."""
        return NetworkConfig(cg=self.kind, cg_group_size=self.group_size)

    def read_regs(self) -> list[int]:
        return [self.src]

    def write_regs(self) -> list[int]:
        return [self.dst]


@dataclass(frozen=True)
class NetworkPass(Instruction):
    """One traversal of the inter-lane network: ``dst = network(src)``.

    The optional *diagonal read* mode models the per-lane register
    addressing that Fig. 3's transposes rely on ("write them to the
    register addresses of x|z"): each lane has its own register file and
    decoder, so lane ``l`` may read register
    ``src + (l + src_rot) mod src_window`` instead of the common ``src``.
    """

    dst: int
    src: int
    config: NetworkConfig
    src_rot: int | None = None
    src_window: int | None = None
    uses_network = True

    def __post_init__(self) -> None:
        if (self.src_rot is None) != (self.src_window is None):
            raise ValueError("src_rot and src_window must be given together")
        if self.src_window is not None and self.src_window <= 0:
            raise ValueError(f"src_window must be positive, got {self.src_window}")

    def read_regs(self) -> list[int]:
        # A diagonal read takes one register per lane, still one read
        # port each.
        return [self.src]

    def write_regs(self) -> list[int]:
        return [self.dst]


@dataclass(frozen=True)
class Load(Instruction):
    """Load one memory row into a register: ``dst = mem[addr]``."""

    dst: int
    addr: int

    def __post_init__(self) -> None:
        if self.addr < 0:  # it would index the memory from its end
            raise ValueError(f"memory row must be non-negative, got {self.addr}")

    def write_regs(self) -> list[int]:
        return [self.dst]


@dataclass(frozen=True)
class Store(Instruction):
    """Store one register to a memory row: ``mem[addr] = src``."""

    src: int
    addr: int

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError(f"memory row must be non-negative, got {self.addr}")

    def read_regs(self) -> list[int]:
        return [self.src]


@dataclass
class Program:
    """An instruction sequence, a label and its constant table.

    ``twiddles`` holds the ``psi``-exponents (mod ``2n``) of the twiddle
    rows back to back, ``scalars`` the ``k`` of each word ``k^{-1}``."""

    instructions: list[Instruction] = field(default_factory=list)
    label: str = ""
    n: int = 0  # psi is a primitive 2n-th root of unity
    twiddles: list[int] = field(default_factory=list)
    scalars: list[int] = field(default_factory=list)
    #: Decoded forms the executor keeps with the program, one per
    #: ``(lanes, register-file entries)`` it ran on, and the table's
    #: binding to each prime it ran under; whoever drops the program
    #: drops them too.
    lowered: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    bound: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)
    _rows: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)  # twiddle row -> its offset

    def twiddle_row(self, exponents: Iterable[int]) -> int:
        """The offset of a row of ``psi``-exponents, added on first use."""
        row = tuple(int(e) % (2 * self.n) for e in exponents)
        if row not in self._rows:
            self._rows[row] = len(self.twiddles)
            self.twiddles.extend(row)
        return self._rows[row]

    def scalar_word(self, k: int) -> int:
        """The index of the scalar word ``k^{-1}``, added on first use."""
        if k not in self.scalars:
            self.scalars.append(k)
        return self.scalars.index(k)

    def append(self, instr: Instruction) -> None:
        self.instructions.append(instr)
        self.lowered.clear()
        self.bound.clear()

    def extend(self, instrs: list[Instruction]) -> None:
        self.instructions.extend(instrs)
        self.lowered.clear()
        self.bound.clear()

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def count(self, kind: type[Instruction]) -> int:
        """Number of instructions of the given class."""
        return sum(1 for i in self.instructions if isinstance(i, kind))

    def disassemble(self, limit: int | None = None) -> str:
        """Human-readable listing (constants by their table slot)."""
        lines = [f"; {self.label} ({len(self.instructions)} instructions)"]
        shown = self.instructions if limit is None else self.instructions[:limit]
        for pc, instr in enumerate(shown):
            lines.append(f"{pc:5d}: {_format_instruction(instr)}")
        if limit is not None and len(self.instructions) > limit:
            lines.append(f"  ... {len(self.instructions) - limit} more")
        return "\n".join(lines)


def _format_instruction(instr: Instruction) -> str:
    name = type(instr).__name__
    if isinstance(instr, (VAdd, VSub, VMul)):
        op = {"VAdd": "+", "VSub": "-", "VMul": "*"}[name]
        return f"r{instr.dst} = r{instr.a} {op} r{instr.b}"
    if isinstance(instr, VMulScalar):
        return f"r{instr.dst} = r{instr.a} * s[{instr.word}]"
    if isinstance(instr, VMulTwiddle):
        return f"r{instr.dst} = r{instr.a} * tw[{instr.row}]"
    if isinstance(instr, Butterfly):
        return f"r{instr.dst} = bfly.{instr.kind}(r{instr.src})"
    if isinstance(instr, NttStage):
        group = f" /g{instr.group_size}" if instr.group_size else ""
        return f"r{instr.dst} = nttstage.{instr.kind}(r{instr.src}){group}"
    if isinstance(instr, NetworkPass):
        cfg = instr.config
        parts = []
        if cfg.cg:
            parts.append(f"cg={cfg.cg}")
        if cfg.shift is not None:
            parts.append("shift")
        if instr.src_rot is not None:
            parts.append(f"diag(rot={instr.src_rot},w={instr.src_window})")
        detail = ",".join(parts) or "pass"
        return f"r{instr.dst} = net[{detail}](r{instr.src})"
    if isinstance(instr, Load):
        return f"r{instr.dst} = mem[{instr.addr}]"
    if isinstance(instr, Store):
        return f"mem[{instr.addr}] = r{instr.src}"
    return repr(instr)  # pragma: no cover - future instructions
