"""The decode-once executor: lowered programs, lane routes, booking.

``VectorProcessingUnit.execute`` lowers a program once and replays the
decoded form.  These tests hold it to an independent Python-int oracle
on random programs, pin the benchmark's cycle and instruction counts,
the lifetime of the lowered form, what is booked when a replay raises,
and the fault points a dormant injector sees.
"""

import gc
import hashlib
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.primes import find_ntt_prime, find_ntt_primes
from repro.automorphism.controls import ShiftControls
from repro.automorphism.mapping import galois_eval_permutation
from repro.core import (
    Butterfly,
    InterLaneNetwork,
    Load,
    NetworkConfig,
    NetworkPass,
    NttStage,
    Program,
    Store,
    VAdd,
    VectorProcessingUnit,
    VMul,
    VMulScalar,
    VMulTwiddle,
    VSub,
)
from repro.core.stages import MuxConflictError
from repro.core.vpu import ExecutionStats, bind_table
from repro.fault import FaultInjector, FaultSpec
from repro.fhe.backend import VpuBackend, use_backend
from repro.mapping import (
    automorphism_layout_pack,
    automorphism_layout_unpack,
    compile_automorphism,
    pack_for_ntt,
    required_registers,
    unpack_ntt_result,
)
from repro.mapping.ntt import compile_negacyclic_intt, compile_negacyclic_ntt
from repro.ntt.negacyclic import NegacyclicNtt
from repro.perf.cycles import ntt_cycle_model

REGS, ROWS = 12, 6
#: Below 2**28, the last modulus of the uint64 multiplier, and the first
#: prime of the exact one.
MODULI = (268369921, (1 << 31) - 1, 2147483659)


# -- (a) random programs against a Python-int oracle --------------------------


def oracle(program, regs, mem, m, q):
    """The ISA on lists of Python ints (all values below ``q``), with
    the program's constant table bound to ``q``."""
    table = bind_table(program, q)
    words, scalars = table.twiddles.tolist(), table.scalars.tolist()

    def twiddles(i, width):
        return words[i.row:i.row + width]

    def cg(x, kind, g):
        out, h = [], (g or m) // 2
        for base in range(0, m, 2 * h):
            blk = x[base:base + 2 * h]
            # dif gathers the strided pair (j, j + g/2) into lanes
            # (2j, 2j + 1); dit scatters adjacent lanes back.
            out += [blk[j // 2 + (j % 2) * h] if kind == "dif"
                    else blk[2 * (j % h) + j // h] for j in range(2 * h)]
        return out

    def network(x, config):
        if config.cg:
            x = cg(x, config.cg, config.cg_group_size)
        bits = config.shift.group_bits if config.shift else ()
        for b in reversed(range(len(bits))):
            x = [x[(j - (1 << b)) % m] if bits[b][j % (1 << b)] else x[j]
                 for j in range(m)]
        return x

    def butterfly(x, kind, tw):
        pairs = [(x[2 * j], x[2 * j + 1], w) for j, w in enumerate(tw)]
        if kind == "dif":
            return [y for u, v, w in pairs for y in ((u + v) % q, (u - v) * w % q)]
        return [y for u, v, w in pairs for y in ((u + w * v) % q, (u - w * v) % q)]

    for i in program:
        kind = type(i)
        if kind is VAdd:
            regs[i.dst] = [(a + b) % q for a, b in zip(regs[i.a], regs[i.b])]
        elif kind is VSub:
            regs[i.dst] = [(a - b) % q for a, b in zip(regs[i.a], regs[i.b])]
        elif kind is VMul:
            regs[i.dst] = [a * b % q for a, b in zip(regs[i.a], regs[i.b])]
        elif kind is VMulScalar:
            regs[i.dst] = [a * scalars[i.word] % q for a in regs[i.a]]
        elif kind is VMulTwiddle:
            regs[i.dst] = [a * w % q for a, w in zip(regs[i.a], twiddles(i, m))]
        elif kind is Butterfly:
            regs[i.dst] = butterfly(regs[i.src], i.kind, twiddles(i, m // 2))
        elif kind is NttStage and i.kind == "dif":
            regs[i.dst] = butterfly(cg(regs[i.src], "dif", i.group_size),
                                    "dif", twiddles(i, m // 2))
        elif kind is NttStage:
            regs[i.dst] = cg(butterfly(regs[i.src], "dit", twiddles(i, m // 2)),
                             "dit", i.group_size)
        elif kind is NetworkPass:
            row = regs[i.src] if i.src_rot is None else [
                regs[i.src + (lane + i.src_rot) % i.src_window][lane]
                for lane in range(m)]
            regs[i.dst] = network(row, i.config)
        elif kind is Load:
            regs[i.dst] = list(mem[i.addr])
        else:
            mem[i.addr] = list(regs[i.src])


def random_program(rng: random.Random, m: int, q: int, length: int) -> Program:
    """A random program with a hand-bound table under ``q``: twiddles
    below ``q``, scalars below ``q`` or any 64-bit word (then the table
    is not reduced and the lock-step lanes divide)."""
    words, scalars, scalar_bound = [], [], rng.choice([q, 1 << 64])

    def reg():
        return rng.randrange(REGS)

    def twiddles(count):
        words.extend(rng.randrange(q) for _ in range(count))
        return len(words) - count

    def word():
        scalars.append(rng.randrange(scalar_bound))
        return len(scalars) - 1

    def group():
        return rng.choice([None] + [1 << b for b in range(1, m.bit_length())])

    def config():
        cg = rng.choice([None, "dit", "dif"])
        shift = rng.choice([None, ShiftControls(m, tuple(
            tuple(rng.randrange(2) for _ in range(1 << b))
            for b in range(m.bit_length() - 1)))])
        return NetworkConfig(cg=cg, cg_group_size=group() if cg else None,
                             shift=shift)

    def diagonal():
        src = rng.randrange(REGS - 1)
        window = rng.randrange(1, REGS - src + 1)
        return NetworkPass(reg(), src, config(), src_rot=rng.randrange(m),
                           src_window=window)

    makers = [
        lambda: VAdd(reg(), reg(), reg()),
        lambda: VSub(reg(), reg(), reg()),
        lambda: VMul(reg(), reg(), reg()),
        lambda: VMulScalar(reg(), reg(), word()),
        lambda: VMulTwiddle(reg(), reg(), twiddles(m)),
        lambda: Butterfly(rng.choice(["dif", "dit"]), reg(), reg(),
                          twiddles(m // 2)),
        lambda: NttStage(rng.choice(["dif", "dit"]), reg(), reg(),
                         twiddles(m // 2), group()),
        lambda: NetworkPass(reg(), reg(), config()),
        diagonal,
        lambda: Load(reg(), rng.randrange(ROWS)),
        lambda: Store(reg(), rng.randrange(ROWS)),
    ]
    program = Program([rng.choice(makers)() for _ in range(length)])
    bind_table(program, q, twiddles=words, scalars=scalars)
    return program


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([4, 8, 16, 64]), q=st.sampled_from(MODULI),
       seed=st.integers(0, 2**32 - 1), length=st.integers(1, 40))
def test_random_programs_match_the_oracle(m, q, seed, length):
    """Both replays: lock-step with no hook, the step loop under a
    dormant injector."""
    rng = random.Random(seed)
    program = random_program(rng, m, q, length)
    regs = [[rng.randrange(q) for _ in range(m)] for _ in range(REGS)]
    mem = [[rng.randrange(q) for _ in range(m)] for _ in range(ROWS)]
    want_regs, want_mem = [list(r) for r in regs], [list(r) for r in mem]
    oracle(program, want_regs, want_mem, m, q)

    for hook in (None, FaultInjector()):
        vpu = VectorProcessingUnit(m=m, q=q, regfile_entries=REGS,
                                   memory_rows=ROWS)
        vpu.install_fault_hook(hook)
        vpu.regfile.data[:] = np.array(regs, dtype=np.uint64)
        vpu.memory.data[:] = np.array(mem, dtype=np.uint64)

        stats = vpu.execute(program)
        if hook is None:
            (lowered,) = program.lowered.values()
            assert lowered.lockstep is not None

        assert vpu.regfile.data.tolist() == want_regs
        assert vpu.memory.data.tolist() == want_mem
        assert stats.cycles == length == sum(stats.by_type.values())
        assert stats.by_type == {
            name: sum(type(i).__name__ == name for i in program)
            for name in stats.by_type}
        assert vpu.network.passes == stats.network_passes == sum(
            isinstance(i, (NetworkPass, NttStage)) for i in program)


# -- (b) the benchmark round's fixed points ----------------------------------


@pytest.mark.parametrize("units", [1, 3, 4])
def test_bench_round_cycles_and_instruction_counts(units):
    """What ``benchmarks/e2e`` reads off ``vpu_model``, as a unit test:
    one round of {hmult, hrot, keyswitch, rescale} at the bench shape.
    Spreading the limbs over several units moves no figure of the
    units' summed tally, nor the observer's counters: a unit books one
    execution per limb of its batch (at 3 units a batch of 4 limbs splits
    2 / 1 / 1)."""
    from repro.fhe.backend import NumpyBackend
    from repro.fhe.ckks import Ciphertext, CkksContext
    from repro.fhe.params import CkksParams
    from repro.obs import observe

    with use_backend(NumpyBackend()):
        ctx = CkksContext(CkksParams(n=1024, levels=3, scale_bits=26,
                                     prime_bits=28), seed=2025)
        ctx.generate_galois_keys([1])
        rng = np.random.default_rng(1)
        a = ctx.encrypt(rng.uniform(-1.0, 1.0, ctx.params.slots))
        b = ctx.encrypt(rng.uniform(-1.0, 1.0, ctx.params.slots))
        tensor = Ciphertext(
            [a.parts[0] * b.parts[0],
             a.parts[0] * b.parts[1] + a.parts[1] * b.parts[0],
             a.parts[1] * b.parts[1]], a.scale * b.scale)
        product = ctx.multiply(a, b, rescale_after=False)
        ops = {"hmult": lambda: ctx.multiply(a, b),
               "hrot": lambda: ctx.rotate(a, 1),
               "keyswitch": lambda: ctx.relinearize(tensor),
               "rescale": lambda: ctx.rescale(product)}
        golden = {kind: op() for kind, op in ops.items()}

    backend = VpuBackend(m=64, units=units)

    def tally():
        stats = ExecutionStats()
        for unit in backend.units:
            stats.add(unit.stats)
        return stats

    cycles, counted = {}, {}
    with use_backend(backend), observe() as observer:
        counters = observer.metrics.counters
        for kind, op in ops.items():
            before = (tally().cycles, counters.get("vpu.executions", 0),
                      counters.get("vpu.cycles", 0))
            out = op()
            cycles[kind] = tally().cycles - before[0]
            counted[kind] = (counters["vpu.executions"] - before[1],
                             counters["vpu.cycles"] - before[2])
            assert all(np.array_equal(p.residues, g.residues)
                       for p, g in zip(out.parts, golden[kind].parts))
    stats = tally()
    assert all(unit.stats.cycles for unit in backend.units)
    # Row NTTs per op at L = 3, the compiled slots' schedule.  A keyswitch
    # is 3 inverse + 3 * 4 - 3 = 9 forward digit rows, then two ModDowns
    # of R = 4 limbs at R rows each (the top row's inverse, 3 forward):
    # 3 + 9 + 2 * 4 = 20.  A rescale is two drops of R = 3: 2 * 3 = 6.
    # HMult = keyswitch + rescale = 3 + 9 + 2 * 4 + 2 * 3 = 26; HRot =
    # keyswitch = 20, plus 2 * 3 automorphism rows.
    assert cycles == {"hmult": 9376, "hrot": 7488, "keyswitch": 7200,
                      "rescale": 2176}
    # One execution per limb, as when the backend replayed limb by limb.
    assert counted == {kind: ({"hmult": 26, "hrot": 26, "keyswitch": 20,
                               "rescale": 6}[kind], cycles[kind])
                       for kind in cycles}
    assert stats.by_type == {"Load": 4704, "Store": 4704, "NttStage": 11520,
                             "NetworkPass": 2400, "VMulScalar": 608,
                             "VMulTwiddle": 2304}
    assert stats.network_passes == sum(
        unit.network.passes for unit in backend.units) == 13920
    assert (stats.loads, stats.stores) == (4704, 4704)


# -- (c) lifetime of the lowered form ----------------------------------------


def _run_automorphism(vpu, program, x, n):
    cols = n // vpu.m
    vpu.memory.data[:cols] = automorphism_layout_pack(x, vpu.m)
    vpu.execute(program)
    return automorphism_layout_unpack(vpu.memory, n, vpu.m, base_row=cols)


class TestLoweredLifetime:
    def test_append_after_a_run_lowers_again(self):
        vpu = VectorProcessingUnit(m=4, q=97, regfile_entries=4, memory_rows=2)
        vpu.memory.data[0] = [1, 2, 3, 4]
        program = Program([Load(0, 0), VAdd(1, 0, 0)])
        vpu.execute(program)
        assert len(program.lowered) == 1
        for grow in (lambda: program.append(VAdd(2, 1, 1)),
                     lambda: program.extend([Store(2, 1)])):
            (lowered,) = program.lowered.values()
            schedule = weakref.ref(lowered.lockstep)
            del lowered
            grow()
            assert not program.lowered
            gc.collect()
            assert schedule() is None
            stats = vpu.execute(program)
            assert stats.cycles == len(program)
        assert vpu.memory.data[1].tolist() == [4, 8, 12, 16]

    def test_a_faulted_lowering_builds_no_schedule(self):
        from repro.analysis.program_check import decode

        program = Program([Load(0, 0), VAdd(1, 0, 12), VAdd(2, 1, 1)])
        lowered, faults = decode(program, 4)
        assert list(faults) == [(1, "registers")]
        assert lowered.lockstep is None and not program.lowered
        vpu = VectorProcessingUnit(m=4, q=97, regfile_entries=10,
                                   memory_rows=1)
        with pytest.raises(IndexError):
            vpu.execute(program)
        assert lowered.lockstep is None and not program.lowered

    def test_one_program_two_moduli_two_register_files(self):
        """The automorphism programs carry no modulus: one compiled (and
        lowered) program serves every limb, and a unit of another
        register-file depth decodes its own form."""
        n, m, k = 256, 16, 5
        perm = galois_eval_permutation(n, k)
        program = compile_automorphism(perm, m)
        rng = np.random.default_rng(3)
        units = [VectorProcessingUnit(m=m, q=q, regfile_entries=entries,
                                      memory_rows=2 * n // m)
                 for q, entries in ((MODULI[0], 8), (MODULI[2], 40))]
        for vpu in units * 2:
            x = rng.integers(0, vpu.q, n, dtype=np.uint64)
            want = np.empty_like(x)
            want[perm.dest(np.arange(n))] = x
            assert np.array_equal(_run_automorphism(vpu, program, x, n), want)
        assert sorted(program.lowered) == [(m, 8), (m, 40)]
        # Same unit, other modulus: the decoded form is reused as is.
        lowered = dict(program.lowered)
        units[0].set_modulus(MODULI[1])
        x = rng.integers(0, MODULI[1], n, dtype=np.uint64)
        want = np.empty_like(x)
        want[perm.dest(np.arange(n))] = x
        assert np.array_equal(_run_automorphism(units[0], program, x, n), want)
        assert all(program.lowered[key] is lowered[key] for key in lowered)

    def test_scalar_resolves_against_the_bound_modulus(self):
        """A scalar word is ``k^{-1}`` under whichever prime is bound."""
        program = Program([VMulScalar(1, 0, 0)], scalars=[1000])
        vpu = VectorProcessingUnit(m=4, q=97, regfile_entries=2, memory_rows=1)
        for q in (97, 13):
            vpu.set_modulus(q)
            vpu.regfile.data[0] = [1, 2, 3, 4]
            vpu.execute(program)
            assert vpu.regfile.data[1].tolist() == [
                v * pow(1000, -1, q) % q for v in (1, 2, 3, 4)]
        assert sorted(program.bound) == [13, 97]

    @pytest.mark.parametrize("drop", [
        lambda backend, q: backend.invalidate_program("ntt", 64),
        lambda backend, q: backend.quarantine_program("ntt", 64),
        lambda backend, q: backend.clear_caches(),
    ])
    def test_dropping_the_program_drops_its_lowered_form(self, drop):
        q = find_ntt_prime(128, 28)
        backend = VpuBackend(m=16)
        backend.forward_ntt_batch(np.zeros((1, 64), dtype=np.uint64), (q,))
        (program,) = backend._programs.values()
        (lowered,) = program.lowered.values()
        (binding,) = program.bound.values()
        refs = [weakref.ref(lowered), weakref.ref(lowered.lockstep),
                weakref.ref(binding)]
        del program, lowered, binding
        drop(backend, q)
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]


# -- what a raising replay books ----------------------------------------------


def _counters(vpu):
    s = vpu.stats
    return (s.cycles, s.multiplier_busy, s.adder_busy, s.network_passes,
            s.loads, s.stores, s.by_type, vpu.regfile.reads,
            vpu.regfile.writes, vpu.network.passes)


def _small_vpu():
    vpu = VectorProcessingUnit(m=4, q=97, regfile_entries=4, memory_rows=2)
    vpu.memory.data[:] = [[1, 2, 3, 4], [5, 6, 7, 8]]
    return vpu


class TestExceptionBooking:
    PREFIX = [Load(0, 0), Load(1, 1), VMul(2, 0, 1),
              NetworkPass(3, 2, NetworkConfig(cg="dif"))]

    @pytest.mark.parametrize("bad, error", [
        (VAdd(4, 0, 1), IndexError),                  # register range
        (VAdd(0, 0, 9), IndexError),
        (VMulTwiddle(0, 1, 0), ValueError),      # past the bound table
        (Butterfly("dif", 0, 1, 0), ValueError),
        (NetworkPass(0, 2, NetworkConfig(), src_rot=0, src_window=3),
         IndexError),                                 # diagonal window
    ])
    def test_a_decode_time_failure_executes_nothing(self, bad, error):
        vpu = _small_vpu()
        before = _counters(vpu)
        with pytest.raises(error):
            vpu.execute(Program(self.PREFIX + [bad]))
        assert _counters(vpu) == before
        assert not vpu.regfile.data.any()

    def test_a_run_time_failure_books_what_retired(self):
        """A row the memory does not have is only known at replay."""
        vpu, reference = _small_vpu(), _small_vpu()
        with pytest.raises(IndexError):
            vpu.execute(Program(self.PREFIX + [Load(0, 7), VAdd(1, 0, 0)]))
        reference.execute(Program(self.PREFIX))
        assert _counters(vpu) == _counters(reference)
        assert np.array_equal(vpu.regfile.data, reference.regfile.data)

    def test_a_mux_conflict_books_what_retired(self):
        """A raw mux-select fault breaks the bijection of the fifth
        instruction's traversal; four instructions retired."""
        program = Program(self.PREFIX + [
            NetworkPass(0, 3, NetworkConfig()), VAdd(1, 0, 0)])
        vpu, reference = _small_vpu(), _small_vpu()
        for unit, specs in ((vpu, [FaultSpec("network", "stuck1", cycle=4,
                                             bit=0, word=1, lane=2)]),
                            (reference, [])):
            unit.install_fault_hook(FaultInjector(specs))
        with pytest.raises(MuxConflictError):
            vpu.execute(program)
        reference.execute(Program(self.PREFIX))
        assert _counters(vpu) == _counters(reference)
        assert vpu.stats.cycles == 4
        assert vpu.fault_hook.cycles == 5


# -- (d) fault points and routes ----------------------------------------------


def test_dormant_injector_sees_the_parent_commits_fault_points():
    """One n = 64 NTT on 16 lanes with nothing armed: outputs, stats and
    per-site exposure counts as the stage-by-stage interpreter had them."""
    q = find_ntt_prime(128, 28)
    x = (np.arange(64, dtype=np.uint64) * np.uint64(2654435761)
         % np.uint64(q))[None, :]
    seen = []
    for injector in (None, FaultInjector()):
        backend = VpuBackend(m=16)
        backend.vpu.install_fault_hook(injector)
        y = backend.forward_ntt_batch(x, (q,))
        vpu = backend.vpu
        seen.append((y.tobytes(), _counters(vpu)))
        assert hashlib.sha256(y.tobytes()).hexdigest()[:16] == "29a2b07e21155664"
        assert list(vpu.stats.by_type.items()) == [
            ("Load", 16), ("VMulTwiddle", 8), ("Store", 16),
            ("NttStage", 24), ("NetworkPass", 8)]
        assert _counters(vpu)[:6] == (72, 32, 24, 32, 16, 16)
        assert _counters(vpu)[7:] == (56, 56, 32)
    assert seen[0] == seen[1]
    assert injector.cycles == 72
    assert injector.exposures == {"sram": 16, "regfile": 52, "alu": 80,
                                  "network": 32}

    # A hooked unit steps a batch limb by limb.  The digest covers every
    # fault point it is shown, in order and with its value; it was taken
    # when the backend still rebound the unit once per limb.
    primes = tuple(find_ntt_primes(128, 28, 3))
    rows = (np.arange(192, dtype=np.uint64).reshape(3, 64)
            * np.uint64(2654435761) % np.uint64(primes[-1]))
    recorder = _RecordingInjector()
    backend = VpuBackend(m=16)
    backend.vpu.install_fault_hook(recorder)
    y = backend.forward_ntt_batch(rows, primes)
    assert np.array_equal(y, VpuBackend(m=16).forward_ntt_batch(rows, primes))
    assert recorder.cycles == 3 * 72
    assert recorder.exposures == {"sram": 48, "regfile": 156, "alu": 240,
                                  "network": 96}
    assert recorder.digest.hexdigest()[:16] == "bcf8cbdae20e1456"


class _RecordingInjector(FaultInjector):
    """A dormant injector that digests every fault point it is shown."""

    def __init__(self):
        super().__init__()
        self.digest = hashlib.sha256()

    def _see(self, *parts):
        for part in parts:
            self.digest.update(part.tobytes() if isinstance(part, np.ndarray)
                               else repr(part).encode())

    def on_cycle(self, vpu):
        self._see("cycle", vpu.q, vpu.memory.data)
        super().on_cycle(vpu)

    def filter_regfile_read(self, reg, value):
        self._see("regfile", reg, value)
        return super().filter_regfile_read(reg, value)

    def filter_memory_read(self, addr, value):
        self._see("sram", addr, value)
        return super().filter_memory_read(addr, value)

    def filter_alu(self, op, value):
        self._see("alu", op, value)
        return super().filter_alu(op, value)

    def filter_network_config(self, config, m):
        self._see("network", config.cg, config.cg_group_size, m)
        return super().filter_network_config(config, m)

    def filter_mux_selects(self, stage_index, selects):
        self._see("mux", stage_index, selects)
        return super().filter_mux_selects(stage_index, selects)


def test_a_hooked_unit_steps_its_limbs_while_the_others_batch(monkeypatch):
    """With a fault hook on unit 0 only, unit 0 runs its limbs one by one
    on the step loop and unit 1 its limbs as one lock-step batch; the
    outputs equal a run with no hook."""
    primes = tuple(find_ntt_primes(128, 28, 5))
    rng = np.random.default_rng(3)
    x = np.stack([rng.integers(0, q, 64, dtype=np.uint64) for q in primes])
    calls = []
    for name in ("_replay", "_replay_lockstep"):
        original = getattr(VectorProcessingUnit, name)

        def spy(self, *args, _original=original, _name=name):
            calls.append((_name, self))
            return _original(self, *args)

        monkeypatch.setattr(VectorProcessingUnit, name, spy)
    hooked = VpuBackend(m=16, units=2)
    hooked.units[0].install_fault_hook(FaultInjector())
    out = hooked.forward_ntt_batch(x, primes)
    first, second = hooked.units
    assert [n for n, unit in calls if unit is first] == ["_replay"] * 3
    assert [n for n, unit in calls if unit is second] == ["_replay_lockstep"]
    calls.clear()
    assert np.array_equal(out, VpuBackend(m=16, units=2).forward_ntt_batch(
        x, primes))
    assert [n for n, _ in calls] == ["_replay_lockstep"] * 2


@pytest.mark.parametrize("m, sizes", [(4, (16, 32, 64)), (16, (64, 256, 512)),
                                      (64, (1024, 2048, 4096))])
def test_route_is_the_mux_model_for_every_compiled_config(m, sizes):
    configs = set()
    for n in sizes:
        programs = [compile_negacyclic_ntt(n, m),
                    compile_negacyclic_intt(n, m)]
        programs += [compile_automorphism(galois_eval_permutation(n, k), m)
                     for k in (5, 25, 2 * n - 1)]
        for instr in (i for program in programs for i in program):
            if isinstance(instr, NetworkPass):
                configs.add(instr.config)
            elif isinstance(instr, NttStage):
                configs.add(NetworkConfig(cg=instr.kind,
                                          cg_group_size=instr.group_size))
    assert len(configs) > 4
    routed, walked = InterLaneNetwork(m), InterLaneNetwork(m)
    walked.fault_hook = FaultInjector()  # dormant: walks the mux stages
    lanes = np.arange(m)
    for config in configs:
        route = routed.route(config)
        assert sorted(route.tolist()) == lanes.tolist()
        assert np.array_equal(route, walked.traverse(lanes, config))
        assert np.array_equal(routed.traverse(lanes * 3, config),
                              lanes[route] * 3)


# -- (e) large transforms by execution ----------------------------------------


@pytest.mark.parametrize("log_n", [12, 14, 16])
def test_large_negacyclic_ntt_executes_to_the_cycle_model(log_n):
    n, m = 1 << log_n, 64
    q = find_ntt_prime(2 * n, 28)
    vpu = VectorProcessingUnit(m=m, q=q, regfile_entries=required_registers(m),
                               memory_rows=n // m)
    x = np.random.default_rng(log_n).integers(0, q, n, dtype=np.uint64)
    vpu.memory.data[:] = pack_for_ntt(x, m)
    stats = vpu.execute(compile_negacyclic_ntt(n, m))
    assert np.array_equal(unpack_ntt_result(vpu.memory, n, m),
                          NegacyclicNtt(n, q).forward(x))
    model = ntt_cycle_model(n, m)
    assert stats.by_type["NttStage"] == model.compute_cycles
    assert stats.by_type["NetworkPass"] == model.network_only_cycles
