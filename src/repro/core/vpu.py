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

Execution is decode once, bind once per prime, replay many.  The first
time a program runs on a unit of a given shape it is *lowered*: every
instruction becomes one flat tuple — opcode, register indices, the
constant-table slot it reads, the lane route of its network
configuration — and everything that is a pure function of the
instruction and the unit's shape is settled there: the 2R1W port
budget, register range, the diagonal-read window, and what the
instruction adds to :class:`ExecutionStats`.  The lowered form is kept
on the program (``Program.lowered``), knows neither modulus nor
constant (a :class:`Binding` per prime, in ``Program.bound``), and goes
away with the program or when it grows.  The lowering is the only
decoder of the ISA, and :func:`step_operands` its one def-use model:
the lock-step schedule and the def-use facts of
:mod:`repro.analysis.dataflow` read the same steps through it.  A
lowering raises on the first check that fails, so a program its unit
refuses is never kept, scheduled or replayed.

:meth:`~VectorProcessingUnit.execute` replays the lowered form once, or
once per limb of a batch: one prime and one memory image per limb, as
the RNS limbs of an FHE operation are independent (§IV-A maps an NTT as
independent CG NTTs the same way).  It replays in one of two ways.  With
no fault hook, and every ``Load`` / ``Store`` row inside the memory, it
runs *lock step*: registers and rows are renamed to immutable values, so
``Load`` and ``Store`` move no data, and the steps of one dependency
level of one kind run as one numpy call over all the independent row
strands of every limb, each limb's lanes bound to its prime.  That
schedule is built on the first such replay and kept on the lowered form;
a butterfly wave gathers its halves as contiguous arrays through flat
offsets the schedule computes once.  When every binding and input is
below its limb's ``q``, so is every value, and the adders never divide.
Registers, rows and counters are written once, at the end; a replay that
raises commits and books nothing.  Otherwise (or for a program that reads
a register before writing it, which would carry it from limb to limb)
the step loop runs one instruction at a time, limb by limb, and books
whatever retired, also when it ends in an exception.

A lane route is the network's own answer
(:meth:`~repro.core.network.InterLaneNetwork.route`: the lane indices
sent once through the mux model), so a fault-free traversal is one
gather.  With a fault hook installed every fault point fires exactly as
the hardware would expose it — ``on_cycle`` before each instruction,
register-file and memory read ports, each adder / subtractor /
multiplier result — and every traversal walks the mux stages again,
because a control-word or mux-select fault reroutes a single pass.

Both replays multiply through one datapath,
:class:`~repro.arith.barrett.BarrettStack` — the step loop's a stack of
the unit's one modulus — which is bit-accurate with the scalar Barrett
model for every modulus (the tests check it against plain modular
arithmetic).  The register file and the memory are the arrays both
replays index; the step loop's reads are the ports the fault hook
filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import groupby

import numpy as np

from repro import obs
from repro.arith.barrett import BarrettStack
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
from repro.ntt.tables import get_tables

#: Opcodes of the lowered form, most frequent first in the replay loop.
(_NTT, _LOAD, _STORE, _NET_DIAG, _NET, _MUL_TWIDDLE, _MUL_SCALAR,
 _ADD, _SUB, _MUL, _BFLY) = range(11)
#: The lock-step waves of either butterfly, routed or not.
_DIF, _DIT = 11, 12
_BINARY = {VAdd: _ADD, VSub: _SUB, VMul: _MUL}


@dataclass(eq=False)
class Binding:
    """A program's constant table bound to one prime (the unit's
    twiddle SRAM), with each lock-step schedule's wave constants."""

    q: int
    twiddles: np.ndarray
    scalars: np.ndarray
    reduced: bool  # every word below q: the lanes need not divide
    waves: dict = field(default_factory=dict)


def bind_table(program: Program, q: int, twiddles=None,
               scalars=None) -> Binding:
    """The program's constant table under ``q``, kept in ``program.bound``.

    Given ``twiddles`` / ``scalars``, binds those words by hand."""
    if twiddles is None and scalars is None:
        if q in program.bound:
            return program.bound[q]
        scalars = [pow(k, -1, q) for k in program.scalars]
        if program.twiddles:
            twiddles = get_tables(program.n, q).psi_period[program.twiddles]
    words = [np.array([] if w is None else w, dtype=np.uint64)
             for w in (twiddles, scalars)]
    program.bound[q] = Binding(
        q, *words, all(int(w.max(initial=0)) < q for w in words))
    return program.bound[q]


# The lanes' modular adder and subtractor, on any words and, dividing
# nothing, on words below q.  ``t - q`` wraps above ``t`` exactly when
# ``t < q``, and ``d + q`` below ``d`` exactly when ``d`` wrapped.

def _add_words(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    t = a % q + b % q
    return np.minimum(t, t - q)


def _sub_words(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    return (a % q + (q - b % q)) % q


def _add_reduced(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    t = a + b
    return np.minimum(t, t - q)


def _sub_reduced(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    d = a - b
    return np.minimum(d, d + q)


class VectorMemory:
    """A simple row-addressed scratch memory (models the on-chip SRAM
    feeding the VPU; rows are m-element vectors, which
    :func:`repro.mapping.pack_for_ntt` lays out and
    :func:`repro.mapping.unpack_columns` reads back)."""

    def __init__(self, m: int, rows: int):
        if m <= 0 or rows <= 0:
            raise ValueError("m and rows must be positive")
        self.m = m
        self.rows = rows
        self.data = np.zeros((rows, m), dtype=np.uint64)
        #: Optional fault-injection hook (guard-checked no-op when None).
        self.fault_hook = None

    def read_row(self, addr: int) -> np.ndarray:
        """Read one row through the (optional) fault hook — the path
        every ``Load`` instruction takes."""
        value = self.data[addr].copy()
        hook = self.fault_hook
        if hook is not None:
            value = hook.filter_memory_read(addr, value)
        return value


@dataclass
class ExecutionStats:
    """Resource accounting for one program run."""

    cycles: int = 0
    multiplier_busy: int = 0
    adder_busy: int = 0
    network_passes: int = 0
    loads: int = 0
    stores: int = 0
    #: Cycles in which the multipliers or the adders did work.
    compute_busy: int = 0
    by_type: dict = field(default_factory=dict)

    def record(self, instr: Instruction) -> None:
        self.cycles += 1
        name = type(instr).__name__
        self.by_type[name] = self.by_type.get(name, 0) + 1
        self.multiplier_busy += instr.uses_multiplier
        self.adder_busy += instr.uses_adder
        self.compute_busy += instr.uses_multiplier or instr.uses_adder
        self.network_passes += instr.uses_network
        self.loads += isinstance(instr, Load)
        self.stores += isinstance(instr, Store)

    def add(self, other: "ExecutionStats", times: int = 1) -> None:
        """Accumulate another tally ``times`` over; instruction classes
        keep the order in which they were first seen."""
        self.cycles += times * other.cycles
        self.multiplier_busy += times * other.multiplier_busy
        self.adder_busy += times * other.adder_busy
        self.compute_busy += times * other.compute_busy
        self.network_passes += times * other.network_passes
        self.loads += times * other.loads
        self.stores += times * other.stores
        for name, count in other.by_type.items():
            self.by_type[name] = self.by_type.get(name, 0) + times * count

    def compute_utilization(self) -> float:
        """Fraction of cycles the arithmetic lanes did useful work."""
        return self.compute_busy / self.cycles if self.cycles else 0.0


@dataclass(eq=False)
class _Lowered:
    """A decoded program: ``(opcode, dst, a, b, const, route, config)``
    per instruction (``const`` a constant-table ``slice``), the slots it
    reads, what one complete replay books, its lock-step form."""

    steps: tuple
    table: tuple
    stats: ExecutionStats
    regfile_reads: int
    regfile_writes: int
    lockstep: _LockStep | None = None


def step_operands(step: tuple) -> tuple:
    """The registers a lowered step consumes and defines: ``(reads, writes)``.

    This is the ISA's one def-use model: the lock-step renaming and the
    def-use facts of :mod:`repro.analysis.dataflow` read it.  Streamed
    constants are not reads (``VMulTwiddle`` charges a read port for its
    twiddles but consumes only ``a``).  A diagonal read consumes one
    register per output lane, in output-lane order."""
    op, dst, a, b = step[:4]
    if op == _LOAD:
        return (), (dst,)
    if op == _STORE:
        return (a,), ()
    if op == _NET_DIAG:
        return b[0].tolist(), (dst,)
    if op in (_ADD, _SUB, _MUL):
        return (a, b), (dst,)
    return (a,), (dst,)


@dataclass(frozen=True, eq=False)
class _LockStep:
    """A strict lowering renamed to immutable values and levelled.

    A replay's table of values opens with the ``inputs`` (registers, then
    rows, read before any write; ``input_counts`` is the number of
    registers and of all inputs); wave ``(op, start, stop, a, b, group,
    const)`` computes values ``[start, stop)`` — one dependency level's
    steps of one kind — from value ids (a ``slice`` for a run) or flat
    ``value * m + lane`` offsets.  A butterfly wave gathers its halves
    ``u`` and ``v`` as contiguous arrays through the offsets ``a`` and
    ``b``, and writes its sums and differences to lanes ``G*group + j``
    and ``G*group + j + group/2``, ``j < group/2``, of every group ``G``
    of its rows: a dit stage's CG scatter, or with ``group`` 2 the
    adjacent pairs of a dif stage or a plain butterfly.  ``const`` is the
    wave's ``(slice, shape)`` of a binding's flat word table, whose slots
    ``words`` lists per wave as ``(scalar, slots)``.  ``outputs``
    (registers, values, rows, values) are committed at the end;
    ``top_row`` is the highest row named; ``carries`` is whether a
    register is read before it is written and written after, so that
    each limb of a batch would read what the limb before left."""

    values: int
    inputs: tuple
    input_counts: tuple
    waves: tuple
    words: tuple
    outputs: tuple
    top_row: int
    carries: bool


def _lock_step(steps: tuple, m: int) -> _LockStep:
    """Rename and level a strict lowering.  A place is ``(0, register)``
    or ``(1, row)``; ``Load`` and ``Store`` only move its name."""
    level = []       # dependency depth of every value, in creation order
    initial = {}     # place -> the value it held before the program
    current = {}     # place -> the value it holds now
    computes = []    # (depth, kind, group, value, operands, lanes, const)
    lanes = np.arange(m)

    def value(place) -> int:
        v = current.get(place)
        if v is None:
            v = current[place] = initial[place] = len(level)
            level.append(0)
        return v

    for step in steps:
        op, _, a, b, const, route, config = step
        reads, writes = step_operands(step)
        operands = [value((0, r)) for r in reads]
        if op == _STORE:
            current[1, b] = operands[0]
            continue
        if op == _LOAD:
            result = value((1, a))
        else:
            # A diagonal read joins the network passes: output lane j
            # reads lane route[j] of its own operand, reads[j].  A plain
            # butterfly is an NTT stage whose route is the identity.
            kind, group = (_NET if op == _NET_DIAG else op), 2
            if op in (_NTT, _BFLY):
                kind = _DIF if b else _DIT
                if route is None:
                    route = lanes
                elif not b:
                    group = config.cg_group_size or m
            depth = 1 + max(level[v] for v in operands)
            result = len(level)
            computes.append((depth, kind, group, result, operands, route,
                             const))
            level.append(depth)
        current[0, writes[0]] = result

    computes.sort(key=lambda c: c[:3])  # stable: program order per wave
    final = np.empty(len(level), dtype=np.intp)
    inits = sorted(initial)             # registers, then rows
    final[[initial[p] for p in inits]] = np.arange(len(inits))
    final[[c[3] for c in computes]] = len(inits) + np.arange(len(computes))
    waves, words, start, offset = [], [], len(inits), 0
    for (_, op, group), members in groupby(computes, key=lambda c: c[:3]):
        wave = list(members)
        ids = final[[w[4][0] for w in wave]]
        a, b, const = _rows(ids), None, None
        if op == _NET:
            # One gather of (value, lane) pairs from the flat value table.
            a = np.stack([final[w[4]] * m + w[5] for w in wave])
        elif op in _BINARY.values():
            b = _rows(final[[w[4][1] for w in wave]])
        elif op in (_DIF, _DIT):
            # dif gathers its operand through the route, dit the adjacent
            # pairs of its own.
            source = ids[:, None] * m + (
                np.stack([w[5] for w in wave]) if op == _DIF else lanes)
            a, b = source[:, 0::2].copy(), source[:, 1::2].copy()
        if wave[0][6] is not None:
            first = wave[0][6]
            starts = np.array([w[6].start for w in wave], dtype=np.intp)
            if (starts == first.start).all():
                starts = starts[:1]
            slots = starts[:, None] + np.arange(first.stop - first.start)
            words.append((op == _MUL_SCALAR, slots))
            const = (slice(offset, offset + slots.size), slots.shape)
            offset += slots.size
        waves.append((op, start, start + len(wave), a, b, group, const))
        start += len(wave)

    changed = [(*p, final[v]) for p, v in current.items()
               if initial.get(p) != v]
    inputs = [[p[1] for p in inits if p[0] == kind] for kind in (0, 1)]
    return _LockStep(
        len(level),
        tuple(_rows(np.array(ids, dtype=np.intp)) for ids in inputs),
        (len(inputs[0]), len(inits)),
        tuple(waves),
        tuple(words),
        tuple(_rows(np.array([c[i] for c in changed if c[0] == kind],
                             dtype=np.intp))
              for kind in (0, 1) for i in (1, 2)),
        max((p[1] for p in current if p[0] == 1), default=-1),
        any(c[0] == 0 and (0, c[1]) in initial for c in changed))


def _rows(ids: np.ndarray):
    """Ids as a ``slice`` when they are a run, which indexes without a
    copy."""
    if len(ids) and (np.diff(ids) == 1).all():
        return slice(int(ids[0]), int(ids[-1]) + 1)
    return ids


def _wave_words(binding: Binding, schedule: _LockStep) -> np.ndarray:
    """The binding's words of every wave of ``schedule``, flat, gathered
    once and kept on the binding."""
    words = binding.waves.get(schedule)
    if words is None:
        scalars = binding.scalars % np.uint64(binding.q)
        words = binding.waves[schedule] = np.concatenate(
            [np.empty(0, dtype=np.uint64)]
            + [(scalars if scalar else binding.twiddles)[slots].reshape(-1)
               for scalar, slots in schedule.words])
    return words


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
        """Rebind the lanes to a new RNS modulus.  The step loop builds
        its multipliers' stack on its first use (a lock-step replay that
        leaves a new modulus behind needs none)."""
        self.q = q
        self._q = np.uint64(q)
        self._lanes = None

    def reset_stats(self) -> None:
        self.stats = ExecutionStats()

    # -- arithmetic helpers (bit-accurate with the Barrett datapath) -----

    def _mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = self._lanes.mul_vec(a, b)
        hook = self.fault_hook
        if hook is not None:
            out = hook.filter_alu("mul", out)
        return out

    def _add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = _add_words(a, b, self._q)
        hook = self.fault_hook
        if hook is not None:
            out = hook.filter_alu("add", out)
        return out

    def _sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = _sub_words(a, b, self._q)
        hook = self.fault_hook
        if hook is not None:
            out = hook.filter_alu("sub", out)
        return out

    def _butterfly_pairs(self, x: np.ndarray, dif: bool, tw: np.ndarray,
                         add, sub) -> np.ndarray:
        """Butterfly the adjacent lane pairs ``(2j, 2j+1)`` of every
        ``(..., m)`` row, with ``(..., m/2)`` twiddles (Fig. 1c)."""
        u = x[..., 0::2]
        v = x[..., 1::2]
        out = np.empty(x.shape, dtype=np.uint64)
        if dif:
            out[..., 0::2] = add(u, v)
            out[..., 1::2] = self._mul(sub(u, v), tw)
        else:
            t = self._mul(v, tw)
            out[..., 0::2] = add(u, t)
            out[..., 1::2] = sub(u, t)
        return out

    # -- lowering ----------------------------------------------------------

    def _lower(self, instructions: list[Instruction]) -> _Lowered:
        """Decode instructions for this unit's shape, running every
        check that depends on nothing else; the first that fails raises
        (port budget: ``ValueError``, register range: ``IndexError``,
        unknown instruction: ``TypeError``)."""
        m, rf, net = self.m, self.regfile, self.network
        lanes = np.arange(m)
        steps = []
        stats = ExecutionStats()
        reads = writes = 0
        table = [0, 0, 0]  # lowest slot, twiddle and scalar words read
        for instr in instructions:
            read_regs, write_regs = instr.read_regs(), instr.write_regs()
            rf.check_ports(read_regs, write_regs)
            for reg in read_regs + write_regs:
                rf.check_range(reg)
            kind = type(instr)
            const = route = config = None
            if kind in _BINARY:
                op, dst, a, b = _BINARY[kind], instr.dst, instr.a, instr.b
            elif kind is VMulScalar:
                op, dst, a, b = _MUL_SCALAR, instr.dst, instr.a, None
                const = slice(instr.word, instr.word + 1)
            elif kind is VMulTwiddle:
                op, dst, a, b = _MUL_TWIDDLE, instr.dst, instr.a, None
                const = slice(instr.row, instr.row + m)
            elif kind is Butterfly or kind is NttStage:
                op, dst, a, b = _BFLY, instr.dst, instr.src, instr.kind == "dif"
                const = slice(instr.row, instr.row + m // 2)
                if kind is NttStage:
                    # Fused network + butterfly: dif routes through the
                    # CG gather first, dit through the CG scatter last.
                    # Grouped mode needs no special butterfly handling:
                    # adjacent pairs stay adjacent pairs and the twiddle
                    # row already carries the per-group factors.
                    op, config = _NTT, instr.config
                    route = net.route(config)
            elif kind is NetworkPass:
                op, dst, a, b = _NET, instr.dst, instr.src, None
                config = instr.config
                route = net.route(config)
                if instr.src_rot is not None:
                    # Diagonal read: lane l fetches its own register file
                    # at src + (l + rot) mod window (per-lane address
                    # decoders).  ``a`` indexes the row as read, ``b``
                    # the same row already routed.
                    regs = instr.src + (lanes + instr.src_rot) % instr.src_window
                    if regs.max() >= rf.entries:
                        raise IndexError("diagonal read window out of range")
                    op, a, b = _NET_DIAG, (regs, lanes), (regs[route], route)
            elif kind is Load:
                op, dst, a, b = _LOAD, instr.dst, instr.addr, None
            elif kind is Store:
                op, dst, a, b = _STORE, None, instr.src, instr.addr
            else:
                raise TypeError(f"unknown instruction {instr!r}")
            if const is not None:
                words = 1 + (op == _MUL_SCALAR)
                table[0] = min(table[0], const.start)
                table[words] = max(table[words], const.stop)
            steps.append((op, dst, a, b, const, route, config))
            stats.record(instr)
            # Register-file accesses: both operands of a binary op, else
            # one read (none for a load); one write (none for a store).
            reads += 2 if kind in _BINARY else int(kind is not Load)
            writes += int(kind is not Store)
        return _Lowered(tuple(steps), tuple(table), stats,
                        reads, writes)

    def lower(self, program: Program) -> _Lowered:
        """Decode a program for this unit's shape, once.

        Kept in ``program.lowered``; a lowering that raises keeps
        nothing."""
        shape = (self.m, self.regfile.entries)
        lowered = program.lowered.get(shape)
        if lowered is None:
            lowered = program.lowered[shape] = self._lower(
                program.instructions)
        return lowered

    # -- execution ---------------------------------------------------------

    def execute(self, program: Program, primes=None,
                images: np.ndarray | None = None) -> ExecutionStats:
        """Run a program to completion, returning the run's stats.

        By default it runs once, under the unit's modulus, on its memory.
        Given one prime and one memory image (an array shaped like
        ``memory.data``) per limb, it runs once per limb, in order, as
        if each limb ran alone: limb ``l`` under ``primes[l]``, on the
        memory ``images[l]`` and the registers the limb before it left,
        and ``images[l]`` receives the memory it leaves.  The stats are
        the sum over the limbs; the unit is left with the last limb's
        modulus, registers and memory."""
        if primes is None:
            primes, images = (self.q,), self.memory.data[None]
        elif not len(primes) or images.shape != (len(primes),
                                                 *self.memory.data.shape):
            raise ValueError(f"{len(primes)} primes for memory images of "
                             f"shape {images.shape}")
        lowered = self.lower(program)
        bindings = [bind_table(program, q) for q in primes]
        lowest, twiddles, scalars = lowered.table
        for binding in bindings:
            if (lowest < 0 or binding.twiddles.size < twiddles
                    or binding.scalars.size < scalars):
                raise ValueError(
                    f"table slots {lowered.table} (lowest, twiddle, scalar "
                    f"words) outside the binding to {binding.q}")
        limbs = len(bindings)
        run = ExecutionStats()
        with obs.span("vpu.execute", cat="vpu", m=self.m, limbs=limbs,
                      instructions=len(program)) as span:
            hooked = self.fault_hook is not None
            if not hooked and lowered.lockstep is None:
                lowered.lockstep = _lock_step(lowered.steps, self.m)
            if (hooked or lowered.lockstep.top_row >= self.memory.rows
                    or limbs > 1 and lowered.lockstep.carries):
                # Limb by limb; each books what retired.
                for binding, image in zip(bindings, images):
                    if binding.q != self.q:
                        self.set_modulus(binding.q)
                    self.memory.data[:] = image
                    self._replay(program, lowered, binding)
                    image[:] = self.memory.data
            else:
                self._replay_lockstep(lowered, bindings, images)
            run.add(lowered.stats, limbs)
            # Model cycles land on this span (the innermost open one),
            # so every architectural cycle is attributed exactly once.
            obs.add_cycles(run.cycles)
            obs.count("vpu.executions", limbs)
            obs.count("vpu.cycles", run.cycles)
            obs.count("vpu.network_passes", run.network_passes)
            span.set(cycles=run.cycles,
                     utilization=round(run.compute_utilization(), 4))
        return run

    def _replay(self, program: Program, lowered: _Lowered,
                binding: Binding) -> None:
        rf, net, memory, hook = (self.regfile, self.network, self.memory,
                                 self.fault_hook)
        data = rf.data
        if self._lanes is None:
            self._lanes = BarrettStack([self.q])
        add, sub, mul = self._add, self._sub, self._mul
        butterfly = partial(self._butterfly_pairs, add=add, sub=sub)
        twiddles, scalars = binding.twiddles, binding.scalars % self._q

        def read(reg: int) -> np.ndarray:
            value = data[reg]
            if hook is not None:
                value = hook.filter_regfile_read(reg, value.copy())
            return value

        def routed(x: np.ndarray, route: np.ndarray,
                   config: NetworkConfig) -> np.ndarray:
            if hook is not None:
                # Control-word and mux-select faults reroute one pass.
                return net.traverse(x, config)
            net.passes += 1
            return x[route]

        pc = 0
        try:
            for pc, (op, dst, a, b, const, route, config) in enumerate(
                    lowered.steps):
                if hook is not None:
                    # Advance the fault clock and land armed state upsets
                    # before the instruction issues.
                    hook.on_cycle(self)
                if const is not None:
                    const = (scalars if op == _MUL_SCALAR else twiddles)[const]
                if op == _NTT:
                    if b:
                        data[dst] = butterfly(
                            routed(read(a), route, config), True, const)
                    else:
                        data[dst] = routed(
                            butterfly(read(a), False, const), route, config)
                elif op == _LOAD:
                    data[dst] = memory.read_row(a)
                elif op == _STORE:
                    memory.data[b] = read(a)
                elif op == _NET_DIAG:
                    if hook is not None:
                        data[dst] = net.traverse(data[a], config)
                    else:
                        net.passes += 1
                        data[dst] = data[b]
                elif op == _NET:
                    data[dst] = routed(read(a), route, config)
                elif op in (_MUL_TWIDDLE, _MUL_SCALAR):
                    data[dst] = mul(read(a), const)
                elif op == _ADD:
                    data[dst] = add(read(a), read(b))
                elif op == _SUB:
                    data[dst] = sub(read(a), read(b))
                elif op == _MUL:
                    data[dst] = mul(read(a), read(b))
                else:
                    data[dst] = butterfly(read(a), b, const)
        except BaseException:
            # Book only the instructions that retired before ``pc``.
            lowered = self._lower(program.instructions[:pc])
            raise
        finally:
            self.stats.add(lowered.stats)
            rf.reads += lowered.regfile_reads
            rf.writes += lowered.regfile_writes

    def _replay_lockstep(self, lowered: _Lowered, bindings: list,
                         images: np.ndarray) -> None:
        """Run the schedule wave by wave on a table of values with one
        plane per limb, the lanes of limb ``l`` bound to its prime;
        registers, rows, the modulus and the counters change only once
        every wave has run."""
        rf, schedule, m = self.regfile, lowered.lockstep, self.m
        limbs = len(bindings)
        words = [_wave_words(binding, schedule) for binding in bindings]
        consts = words[0][None] if limbs == 1 else np.stack(words)
        table = np.empty((limbs, schedule.values, m), dtype=np.uint64)
        flat = table.reshape(limbs, -1)
        (regs, rows), (registers, count) = (schedule.inputs,
                                            schedule.input_counts)
        inputs = table[:, :count]
        inputs[:, :registers] = rf.data[regs]
        inputs[:, registers:] = images[:, rows]
        lanes = BarrettStack([binding.q for binding in bindings])
        mul = lanes.mul_vec
        add, sub = _add_words, _sub_words
        if (all(binding.reduced for binding in bindings)
                and (inputs.reshape(limbs, -1).max(axis=1, initial=0)
                     < lanes.moduli).all()):
            # Every value the lanes make stays below q: no division.
            add, sub = _add_reduced, _sub_reduced
        for op, start, stop, a, b, group, const in schedule.waves:
            rows_out = table[:, start:stop]
            if const is not None:
                const = consts[:, const[0]].reshape(limbs, *const[1])
            if op in (_DIF, _DIT):
                u, v = flat.take(a, axis=1), flat.take(b, axis=1)
                q = lanes.words(u.shape)[-1]
                if op == _DIF:
                    low, high = add(u, v, q), mul(sub(u, v, q), const)
                else:
                    v = mul(v, const)
                    low, high = add(u, v, q), sub(u, v, q)
                half = group // 2
                halves = rows_out.reshape(limbs, -1, 2, half)
                halves[:, :, 0] = low.reshape(limbs, -1, half)
                halves[:, :, 1] = high.reshape(limbs, -1, half)
            elif op == _NET:
                rows_out[:] = flat.take(a, axis=1)
            elif op in (_ADD, _SUB):
                x = table[:, a]
                rows_out[:] = (add if op == _ADD else sub)(
                    x, table[:, b], lanes.words(x.shape)[-1])
            else:
                rows_out[:] = mul(table[:, a],
                                  table[:, b] if const is None else const)
        regs, reg_values, rows, row_values = schedule.outputs
        rf.data[regs] = table[-1, reg_values]
        images[:, rows] = table[:, row_values]
        self.memory.data[:] = images[-1]
        if bindings[-1].q != self.q:
            self.set_modulus(bindings[-1].q)
        self.stats.add(lowered.stats, limbs)
        rf.reads += limbs * lowered.regfile_reads
        rf.writes += limbs * lowered.regfile_writes
        self.network.passes += limbs * lowered.stats.network_passes

    # -- convenience -------------------------------------------------------

    def run_fresh(self, program: Program) -> ExecutionStats:
        """Reset stats, run, and return the stats of just this program."""
        self.reset_stats()
        return self.execute(program)
