"""The lock-step replay against the step loop.

``VectorProcessingUnit.execute`` runs a program wave by wave when no
fault hook is installed and every row it names is in memory, and one
instruction at a time otherwise.  These tests run each compiled program
kind, and programs built around the renaming's hazards, both ways from
the same state and compare everything a replay leaves behind.
"""

import numpy as np
import pytest

from repro.arith.barrett import BarrettStack
from repro.arith.primes import find_ntt_prime, find_ntt_primes
from repro.automorphism.controls import uniform_shift_controls
from repro.automorphism.mapping import galois_eval_permutation
from repro.core import (
    Load,
    NetworkConfig,
    NetworkPass,
    Program,
    Store,
    VAdd,
    VectorProcessingUnit,
    VMul,
    VMulScalar,
)
from repro.core.vpu import bind_table
from repro.fault import FaultInjector
from repro.fhe.backend import VpuBackend
from repro.mapping import compile_automorphism, required_registers
from repro.mapping.ntt import compile_negacyclic_intt, compile_negacyclic_ntt
from tests.test_core_replay import oracle

Q = 268369921


def _state(vpu):
    """Everything a replay leaves behind on a unit."""
    return (vpu.memory.data.tolist(), vpu.regfile.data.tolist(), vpu.stats,
            list(vpu.stats.by_type.items()), vpu.regfile.reads,
            vpu.regfile.writes, vpu.network.passes)


def _both_paths(program, m, q, entries, rows, seed=0):
    """Run ``program`` lock-step and on the step loop from one random
    state; return both units."""
    rng = np.random.default_rng(seed)
    regs = rng.integers(0, q, (entries, m), dtype=np.uint64)
    mem = rng.integers(0, q, (rows, m), dtype=np.uint64)
    units = []
    for hook in (None, FaultInjector()):
        vpu = VectorProcessingUnit(m=m, q=q, regfile_entries=entries,
                                   memory_rows=rows)
        vpu.install_fault_hook(hook)
        vpu.regfile.data[:] = regs
        vpu.memory.data[:] = mem
        vpu.execute(program)
        units.append(vpu)
    lockstep, stepped = units
    (lowered,) = program.lowered.values()
    assert lowered.lockstep is not None
    assert _state(lockstep) == _state(stepped)
    return lockstep, regs, mem


# -- every compiled program kind ---------------------------------------------

SHAPES = [(4, 8), (4, 16), (4, 32), (4, 64), (16, 64), (16, 256), (16, 512),
          (64, 1024), (64, 2048), (64, 4096)]


@pytest.mark.parametrize("kind", ["ntt", "intt", "auto"])
@pytest.mark.parametrize("m, n", SHAPES)
def test_compiled_programs_replay_alike(kind, m, n):
    q = find_ntt_prime(2 * n, 28)
    if kind == "ntt":
        programs = [compile_negacyclic_ntt(n, m)]
    elif kind == "intt":
        programs = [compile_negacyclic_intt(n, m)]
    else:
        programs = [compile_automorphism(galois_eval_permutation(n, k), m)
                    for k in (5, 2 * n - 1)]
    for program in programs:
        _both_paths(program, m, q, required_registers(m), 2 * n // m)


def test_a_modulus_above_the_uint64_multiplier_replays_alike():
    n, m = 256, 16
    q = find_ntt_prime(2 * n, 32)
    assert q >= 1 << 31
    for program in (compile_negacyclic_ntt(n, m),
                    compile_negacyclic_intt(n, m)):
        _both_paths(program, m, q, required_registers(m), n // m)


# -- hazards of the renaming --------------------------------------------------

M = 8
#: The hazard programs' hand-bound scalar words.
SCALARS = (3, 5, 2, 4, 7)
DIAGONAL = NetworkPass(5, 0, NetworkConfig(shift=uniform_shift_controls(M, 3)),
                       src_rot=1, src_window=4)
HAZARDS = {
    # Two strands share r0; their scalars run in one wave.
    "register reused across strands": [
        Load(0, 0), VMulScalar(0, 0, 0), Store(0, 0),
        Load(0, 1), VMulScalar(0, 0, 1), Store(0, 1)],
    "store then load of one row": [
        Load(0, 0), VAdd(1, 0, 0), Store(1, 1), Load(2, 1), VMul(3, 2, 2),
        Store(3, 0)],
    # r0..r3 come from one wave; r1 is overwritten in the diagonal read's
    # own level, after it in program order.
    "diagonal read of registers written in one level": [
        Load(0, 0), Load(1, 1), Load(2, 2), Load(3, 3),
        VMulScalar(0, 0, 2), VMulScalar(1, 1, 0), VMulScalar(2, 2, 3),
        VMulScalar(3, 3, 1), DIAGONAL, VMulScalar(1, 2, 4), Store(5, 0),
        Store(1, 1)],
    "load of a row never written": [
        Load(0, 3), VAdd(1, 0, 4), Store(1, 2)],
    "no compute": [
        Load(0, 0), Store(0, 2), Load(1, 2), Store(1, 1), Store(4, 3),
        Load(4, 0)],
    "empty": [],
}


@pytest.mark.parametrize("name", HAZARDS)
def test_hazard_programs(name):
    program = Program(list(HAZARDS[name]))
    bind_table(program, Q, scalars=SCALARS)
    vpu, regs, mem = _both_paths(program, M, Q, entries=6, rows=4, seed=1)
    regs, mem = regs.tolist(), mem.tolist()
    oracle(program, regs, mem, M, Q)
    assert vpu.regfile.data.tolist() == regs
    assert vpu.memory.data.tolist() == mem


def test_a_raising_lockstep_replay_commits_and_books_nothing(monkeypatch):
    """Unlike the step loop, which books the prefix that retired
    (``TestExceptionBooking`` in test_core_replay.py)."""
    vpu = VectorProcessingUnit(m=4, q=97, regfile_entries=4, memory_rows=2)
    vpu.memory.data[:] = [[1, 2, 3, 4], [5, 6, 7, 8]]
    program = Program([Load(0, 0), Load(1, 1), VAdd(2, 0, 1), VMul(3, 2, 2),
                       Store(3, 0)])

    def broken(self, a, b):
        raise FloatingPointError("multiplier")

    # The lock-step lanes' multiplier.
    monkeypatch.setattr(BarrettStack, "mul_vec", broken)
    before = (vpu.memory.data.copy(), vpu.regfile.data.copy())
    with pytest.raises(FloatingPointError):
        vpu.execute(program)
    assert np.array_equal(vpu.memory.data, before[0])
    assert np.array_equal(vpu.regfile.data, before[1])
    assert (vpu.stats.cycles, vpu.regfile.reads, vpu.regfile.writes,
            vpu.network.passes) == (0, 0, 0, 0)


# -- a batch of limbs in one replay -------------------------------------------

def _kernel(backend, kind, x, primes):
    if kind == "ntt":
        return backend.forward_ntt_batch(x, primes)
    if kind == "intt":
        return backend.inverse_ntt_batch(x, primes)
    if kind == "cyclic":
        return backend.cyclic_ntt_batch(x, primes)
    return backend.automorphism_eval_batch(x, 5, primes)


def _batched_and_stepped(kind, x, primes, m, units, seed=0):
    """Run one batch on a backend whose units replay it lock step, and on
    one whose units step every limb (a dormant injector on each), from
    the same register state; return both outputs and backends."""
    rng = np.random.default_rng(seed)
    regs = rng.integers(0, 1 << 20, (required_registers(m), m),
                        dtype=np.uint64)
    runs = []
    for stepped in (False, True):
        backend = VpuBackend(m=m, units=units)
        for unit in backend.units:
            unit.regfile.data[:] = regs
            if stepped:
                unit.install_fault_hook(FaultInjector())
        runs.append((_kernel(backend, kind, x, primes), backend))
    return runs


@pytest.mark.parametrize("units", [1, 2, 3])
@pytest.mark.parametrize("limbs", [1, 2, 3, 9])
@pytest.mark.parametrize("kind", ["ntt", "intt", "cyclic", "auto"])
@pytest.mark.parametrize("m, n", [(16, 256), (4, 32)])
def test_a_batch_replays_like_its_limbs_one_by_one(kind, limbs, units, m, n):
    """Each unit takes limbs j, j + units, ... as one lock-step batch;
    outputs and everything every unit is left with equal the step loop
    run limb by limb."""
    primes = tuple(find_ntt_primes(2 * n, 28, limbs))
    rng = np.random.default_rng(limbs * units)
    x = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes])
    (batched, lockstep), (stepped, reference) = _batched_and_stepped(
        kind, x, primes, m, units)
    assert np.array_equal(batched, stepped)
    for unit, ref in zip(lockstep.units, reference.units):
        assert _state(unit) == _state(ref)
        assert unit.q == ref.q
    assert lockstep.kernel_invocations == reference.kernel_invocations == limbs
    (program,) = lockstep._programs.values()
    (lowered,) = program.lowered.values()
    assert not lowered.lockstep.carries  # so the units ran lock step


def test_a_batch_mixing_a_wide_prime_replays_alike():
    """A prime from 2**31 up takes the exact multiplier limb by limb
    inside the batch; the others share the uint64 datapath."""
    n, m = 256, 16
    primes = (find_ntt_prime(2 * n, 28), find_ntt_prime(2 * n, 32),
              find_ntt_prime(2 * n, 28, 1))
    assert primes[1] >= 1 << 31
    rng = np.random.default_rng(7)
    x = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes])
    for kind in ("ntt", "intt"):
        (batched, lockstep), (stepped, reference) = _batched_and_stepped(
            kind, x, primes, m, units=1)
        assert np.array_equal(batched, stepped)
        assert _state(lockstep.vpu) == _state(reference.vpu)


def test_a_batch_with_unreduced_inputs_divides(monkeypatch):
    """A limb with words at or above its prime sends the whole batch to
    the dividing adders; the results still equal the step loop's."""
    from repro.core import vpu as vpu_module

    n, m = 256, 16
    primes = tuple(find_ntt_primes(2 * n, 28, 3))
    rng = np.random.default_rng(8)
    x = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes])
    x[1, ::7] += np.uint64(primes[1])  # words in [q, 2q) on one limb
    calls = []
    reduced_add = vpu_module._add_reduced
    monkeypatch.setattr(
        vpu_module, "_add_reduced",
        lambda a, b, q: calls.append(1) or reduced_add(a, b, q))
    (batched, lockstep), (stepped, reference) = _batched_and_stepped(
        "ntt", x, primes, m, units=1)
    assert not calls
    assert np.array_equal(batched, stepped)
    assert _state(lockstep.vpu) == _state(reference.vpu)


def test_a_raising_batch_commits_and_books_nothing(monkeypatch):
    """The second of a batch's multiplications fails: no limb's memory
    image, no register, no counter and not the modulus moves."""
    n, m = 64, 16
    primes = tuple(find_ntt_primes(2 * n, 28, 3))
    program = compile_negacyclic_ntt(n, m)
    vpu = VectorProcessingUnit(m=m, q=Q, regfile_entries=required_registers(m),
                               memory_rows=n // m)
    rng = np.random.default_rng(9)
    images = np.stack([rng.integers(0, q, (n // m, m), dtype=np.uint64)
                       for q in primes])
    vpu.regfile.data[:] = rng.integers(0, Q, vpu.regfile.data.shape,
                                       dtype=np.uint64)
    before = (images.copy(), _state(vpu), vpu.q)
    multiply = BarrettStack.mul_vec
    calls = []

    def failing(self, a, b):
        calls.append(1)
        if len(calls) == 2:
            raise FloatingPointError("multiplier")
        return multiply(self, a, b)

    monkeypatch.setattr(BarrettStack, "mul_vec", failing)
    with pytest.raises(FloatingPointError):
        vpu.execute(program, primes, images)
    assert np.array_equal(images, before[0])
    assert (_state(vpu), vpu.q) == before[1:]
    assert vpu.stats.cycles == 0


def test_a_program_that_carries_registers_steps_its_limbs():
    """A register read before the program writes it passes from each limb
    to the next, so such a batch replays limb by limb."""
    program = Program([Load(0, 0), VAdd(1, 1, 0), Store(1, 1)])
    vpu = VectorProcessingUnit(m=4, q=97, regfile_entries=2, memory_rows=2)
    images = np.array([[[1, 2, 3, 4], [0] * 4], [[10, 20, 30, 40], [0] * 4]],
                      dtype=np.uint64)
    vpu.execute(program, (97, 97), images)
    (lowered,) = program.lowered.values()
    assert lowered.lockstep.carries
    assert images[:, 1].tolist() == [[1, 2, 3, 4], [11, 22, 33, 44]]
    assert vpu.regfile.data[1].tolist() == [11, 22, 33, 44]
    assert vpu.stats.cycles == 2 * len(program)
