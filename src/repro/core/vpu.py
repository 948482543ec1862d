"""The cycle-counting VPU executor (paper Fig. 1b/1c).

:class:`VectorProcessingUnit` binds ``m`` lanes of Barrett modular
arithmetic, one per-lane 2R1W register file, and the inter-lane network
into an executor for :class:`~repro.core.isa.Program` objects.

Cycle model: the unit is fully pipelined, one instruction retires per
cycle.  Each cycle the executor records which resources were busy
(multipliers, adders, network), from which the Table III throughput
utilization is computed — utilization is butterfly/compute cycles over
total cycles, the paper's "actual throughput on our VPU vs. the ideal
full throughput".

Moduli below 2**31 use the vectorized Barrett path; the datapath is
bit-accurate with the scalar Barrett model either way (the tests check
both against plain modular arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.arith.barrett import BarrettReducer
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
from repro.core.network import InterLaneNetwork, NetworkConfig
from repro.core.register_file import RegisterFile


class VectorMemory:
    """A simple row-addressed scratch memory (models the on-chip SRAM
    feeding the VPU; rows are m-element vectors)."""

    def __init__(self, m: int, rows: int):
        if m <= 0 or rows <= 0:
            raise ValueError("m and rows must be positive")
        self.m = m
        self.rows = rows
        self.data = np.zeros((rows, m), dtype=np.uint64)
        #: Optional fault-injection hook (guard-checked no-op when None).
        self.fault_hook = None

    def load_vector(self, x: np.ndarray, base_row: int = 0) -> None:
        """Pack a flat length-``k*m`` vector into rows (row-major)."""
        x = np.asarray(x, dtype=np.uint64)
        if len(x) % self.m:
            raise ValueError(f"vector length {len(x)} not a multiple of m={self.m}")
        k = len(x) // self.m
        if base_row + k > self.rows:
            raise ValueError("vector does not fit in memory")
        self.data[base_row:base_row + k] = x.reshape(k, self.m)

    def read_row(self, addr: int) -> np.ndarray:
        """Read one row through the (optional) fault hook — the path
        every ``Load`` instruction takes."""
        value = self.data[addr].copy()
        hook = self.fault_hook
        if hook is not None:
            value = hook.filter_memory_read(addr, value)
        return value

    def read_vector(self, length: int, base_row: int = 0) -> np.ndarray:
        """Read back a flat vector of ``length`` elements."""
        if length % self.m:
            raise ValueError(f"length {length} not a multiple of m={self.m}")
        k = length // self.m
        return self.data[base_row:base_row + k].reshape(-1).copy()


@dataclass
class ExecutionStats:
    """Resource accounting for one program run."""

    cycles: int = 0
    multiplier_busy: int = 0
    adder_busy: int = 0
    network_passes: int = 0
    loads: int = 0
    stores: int = 0
    by_type: dict = field(default_factory=dict)

    def record(self, instr: Instruction) -> None:
        self.cycles += 1
        name = type(instr).__name__
        self.by_type[name] = self.by_type.get(name, 0) + 1
        if instr.uses_multiplier:
            self.multiplier_busy += 1
        if instr.uses_adder:
            self.adder_busy += 1
        if instr.uses_network:
            self.network_passes += 1
        if isinstance(instr, Load):
            self.loads += 1
        if isinstance(instr, Store):
            self.stores += 1

    def compute_utilization(self) -> float:
        """Fraction of cycles the arithmetic lanes did useful work."""
        if self.cycles == 0:
            return 0.0
        busy = sum(
            count for name, count in self.by_type.items()
            if name in ("VAdd", "VSub", "VMul", "VMulScalar",
                        "VMulTwiddle", "Butterfly")
        )
        return busy / self.cycles


class VectorProcessingUnit:
    """An m-lane unified VPU bound to one modulus at a time."""

    def __init__(self, m: int = 64, q: int = 998244353,
                 regfile_entries: int = 64, memory_rows: int = 4096):
        self.m = m
        self.network = InterLaneNetwork(m)
        self.regfile = RegisterFile(m, regfile_entries)
        self.memory = VectorMemory(m, memory_rows)
        self.stats = ExecutionStats()
        self.fault_hook = None
        self.set_modulus(q)

    def install_fault_hook(self, hook) -> None:
        """Attach a fault injector to every stateful component (None
        detaches).  Dormant hooks are guard-checked (FHC005): disabled
        injection costs one branch per touch point and zero modeled
        cycles."""
        self.fault_hook = hook
        self.regfile.fault_hook = hook
        self.memory.fault_hook = hook
        self.network.fault_hook = hook

    def resize_memory(self, rows: int) -> None:
        """Replace the scratch memory with a larger one, preserving any
        installed fault hook (callers used to swap ``self.memory`` raw,
        silently dropping the hook)."""
        memory = VectorMemory(self.m, rows)
        memory.fault_hook = self.fault_hook
        self.memory = memory

    def set_modulus(self, q: int) -> None:
        """Rebind the lanes' Barrett units to a new RNS modulus."""
        self.reducer = BarrettReducer(q)
        self.q = q
        self._vectorized = q < (1 << 31)

    def reset_stats(self) -> None:
        self.stats = ExecutionStats()

    # -- arithmetic helpers (bit-accurate with the Barrett datapath) -----

    def _mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._vectorized:
            out = self.reducer.mul_vec(a, b)
        else:
            out = np.array([self.reducer.mul(int(x), int(y))
                            for x, y in zip(a, b)], dtype=np.uint64)
        hook = self.fault_hook
        if hook is not None:
            out = hook.filter_alu("mul", out)
        return out

    def _add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        q = np.uint64(self.q)
        t = a % q + b % q
        out = np.where(t >= q, t - q, t)
        hook = self.fault_hook
        if hook is not None:
            out = hook.filter_alu("add", out)
        return out

    def _sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        q = np.uint64(self.q)
        out = (a % q + (q - b % q)) % q
        hook = self.fault_hook
        if hook is not None:
            out = hook.filter_alu("sub", out)
        return out

    # -- execution ---------------------------------------------------------

    def execute(self, program: Program) -> ExecutionStats:
        """Run a program to completion, returning the run's stats."""
        run = ExecutionStats()
        hook = self.fault_hook
        with obs.span("vpu.execute", cat="vpu", m=self.m, q=self.q,
                      instructions=len(program)) as span:
            for instr in program:
                if hook is not None:
                    # Advance the fault clock and land armed state upsets
                    # before the instruction issues.
                    hook.on_cycle(self)
                self._dispatch(instr)
                run.record(instr)
                self.stats.record(instr)
            # Model cycles land on this span (the innermost open one),
            # so every architectural cycle is attributed exactly once.
            obs.add_cycles(run.cycles)
            obs.count("vpu.executions")
            obs.count("vpu.cycles", run.cycles)
            obs.count("vpu.network_passes", run.network_passes)
            span.set(cycles=run.cycles,
                     utilization=round(run.compute_utilization(), 4))
        return run

    def _dispatch(self, instr: Instruction) -> None:
        rf = self.regfile
        rf.check_ports(instr.read_regs(), instr.write_regs())
        if isinstance(instr, VAdd):
            rf.write(instr.dst, self._add(rf.read(instr.a), rf.read(instr.b)))
        elif isinstance(instr, VSub):
            rf.write(instr.dst, self._sub(rf.read(instr.a), rf.read(instr.b)))
        elif isinstance(instr, VMul):
            rf.write(instr.dst, self._mul(rf.read(instr.a), rf.read(instr.b)))
        elif isinstance(instr, VMulScalar):
            scalar = np.full(self.m, instr.scalar % self.q, dtype=np.uint64)
            rf.write(instr.dst, self._mul(rf.read(instr.a), scalar))
        elif isinstance(instr, VMulTwiddle):
            tw = np.array(instr.twiddles, dtype=np.uint64)
            if tw.shape != (self.m,):
                raise ValueError(f"twiddle vector must have {self.m} entries")
            rf.write(instr.dst, self._mul(rf.read(instr.a), tw))
        elif isinstance(instr, Butterfly):
            self._butterfly(instr)
        elif isinstance(instr, NttStage):
            self._ntt_stage(instr)
        elif isinstance(instr, NetworkPass):
            if instr.src_rot is None:
                value = rf.read(instr.src)
            else:
                # Diagonal read: lane l fetches its own register file at
                # src + (l + rot) mod window (per-lane address decoders).
                lanes = np.arange(self.m)
                regs = instr.src + (lanes + instr.src_rot) % instr.src_window
                if regs.max() >= rf.entries:
                    raise IndexError("diagonal read window out of range")
                value = rf.data[regs, lanes].copy()
                rf.reads += 1
            rf.write(instr.dst, self.network.traverse(value, instr.config))
        elif isinstance(instr, Load):
            rf.write(instr.dst, self.memory.read_row(instr.addr))
        elif isinstance(instr, Store):
            self.memory.data[instr.addr] = rf.read(instr.src)
        else:
            raise TypeError(f"unknown instruction {instr!r}")

    def _butterfly(self, instr: Butterfly) -> None:
        rf = self.regfile
        x = rf.read(instr.src)
        rf.write(instr.dst, self._butterfly_pairs(x, instr.kind, instr.twiddles))

    def _butterfly_pairs(self, x: np.ndarray, kind: str,
                         twiddles: tuple[int, ...]) -> np.ndarray:
        tw = np.array(twiddles, dtype=np.uint64)
        if tw.shape != (self.m // 2,):
            raise ValueError(f"butterfly needs {self.m // 2} twiddles")
        u = x[0::2]
        v = x[1::2]
        out = np.empty(self.m, dtype=np.uint64)
        if kind == "dif":
            out[0::2] = self._add(u, v)
            out[1::2] = self._mul(self._sub(u, v), tw)
        else:  # dit
            t = self._mul(v, tw)
            out[0::2] = self._add(u, t)
            out[1::2] = self._sub(u, t)
        return out

    def _ntt_stage(self, instr: NttStage) -> None:
        """Fused network + butterfly: one cycle per CG NTT stage.

        Grouped mode needs no special butterfly handling: adjacent pairs
        stay adjacent pairs and the twiddle vector already carries the
        per-group factors.
        """
        rf = self.regfile
        x = rf.read(instr.src)
        if instr.kind == "dif":
            routed = self.network.traverse(
                x, NetworkConfig(cg="dif", cg_group_size=instr.group_size))
            out = self._butterfly_pairs(routed, "dif", instr.twiddles)
        else:
            half = self._butterfly_pairs(x, "dit", instr.twiddles)
            out = self.network.traverse(
                half, NetworkConfig(cg="dit", cg_group_size=instr.group_size))
        rf.write(instr.dst, out)

    # -- convenience -------------------------------------------------------

    def run_fresh(self, program: Program) -> ExecutionStats:
        """Reset stats, run, and return the stats of just this program."""
        self.reset_stats()
        return self.execute(program)
