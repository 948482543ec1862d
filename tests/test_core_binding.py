"""One program per kernel shape, its constant table bound per prime.

A compiled program names constant-table slots, never a prime's values,
so ``VpuBackend`` compiles, lowers and schedules one program per
``(kind, n, m)`` and binds each prime by a gather.  These tests hold
the binding to the numpy kernels over primes of every host width and
to the naive reference transform above it, pin the
compilation count of an FHE round, check that the integrity layer and
the verification hook act on the shared program and all its bindings,
and that the lock-step lanes drop their division only when every input
and every table word is below ``q``.
"""

import numpy as np
import pytest

from repro.arith.primes import find_ntt_prime, find_ntt_primes
from repro.core import (
    Butterfly,
    Load,
    NttStage,
    Program,
    Store,
    VAdd,
    VectorProcessingUnit,
    VMulScalar,
    VMulTwiddle,
    VSub,
    bind_table,
)
from repro.core import vpu as vpu_module
from repro.fault import FaultInjector
from repro.fhe.backend import (
    IntegrityBackend,
    NumpyBackend,
    ProgramQuarantinedError,
    VpuBackend,
    use_backend,
)
from repro.mapping import pack_for_ntt, required_registers
from repro.mapping.ntt import compile_negacyclic_intt, compile_negacyclic_ntt

N, M = 64, 16
PRIMES = tuple(find_ntt_primes(2 * N, 28, 3))


def _rows(primes, n=N, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes])


# -- one program, every prime ---------------------------------------------------


def test_one_shape_program_serves_primes_of_every_width():
    """Primes of 14 to 30 bits, and one above 2**32, all replay the one
    forward and the one inverse program: equal to the numpy kernels
    below the host limit, and to the naive reference transform on the
    33-bit prime (the VPU model's words are 64 bits wide; the host
    refuses that prime)."""
    from tests.test_ntt_boundary_moduli import reference_forward

    host = tuple(find_ntt_prime(2 * N, bits) for bits in range(14, 31))
    wide = find_ntt_prime(2 * N, 33)
    primes = host + (wide,)
    assert wide >= 1 << 31 and len(set(primes)) == len(primes)
    x = _rows(primes)
    backend, golden = VpuBackend(m=M), NumpyBackend()
    evals = backend.forward_ntt_batch(x, primes)
    assert np.array_equal(evals[:-1], golden.forward_ntt_batch(x[:-1], host))
    assert np.array_equal(evals[-1], reference_forward(x[-1], wide))
    coeffs = backend.inverse_ntt_batch(evals, primes)
    assert np.array_equal(coeffs[:-1],
                          golden.inverse_ntt_batch(evals[:-1], host))
    assert np.array_equal(coeffs, x)
    assert backend.program_compilations == 2
    for program in backend._programs.values():
        assert sorted(program.bound) == sorted(primes)
        (lowered,) = program.lowered.values()  # one lowering for all


@pytest.mark.parametrize("levels", [3, 6])
def test_an_fhe_round_compiles_three_programs(levels):
    """HMult, HRot, keyswitch and rescale need the forward and inverse
    NTT and one automorphism, at any level count."""
    from repro.fhe.ckks import Ciphertext, CkksContext
    from repro.fhe.params import CkksParams

    with use_backend(NumpyBackend()):
        ctx = CkksContext(CkksParams(n=256, levels=levels, scale_bits=24,
                                     prime_bits=28), seed=7)
        ctx.generate_galois_keys([1])
        rng = np.random.default_rng(levels)
        a = ctx.encrypt(rng.uniform(-1.0, 1.0, ctx.params.slots))
        b = ctx.encrypt(rng.uniform(-1.0, 1.0, ctx.params.slots))
        tensor = Ciphertext(
            [a.parts[0] * b.parts[0],
             a.parts[0] * b.parts[1] + a.parts[1] * b.parts[0],
             a.parts[1] * b.parts[1]], a.scale * b.scale)
        product = ctx.multiply(a, b, rescale_after=False)
        ops = [lambda: ctx.multiply(a, b), lambda: ctx.rotate(a, 1),
               lambda: ctx.relinearize(tensor), lambda: ctx.rescale(product)]
        golden = [op() for op in ops]
    backend = VpuBackend(m=M)
    with use_backend(backend):
        for op, want in zip(ops, golden):
            assert all(np.array_equal(p.residues, g.residues)
                       for p, g in zip(op().parts, want.parts))
    assert backend.program_compilations == 3
    assert sorted(key[0] for key in backend._programs) == [
        "auto", "intt", "ntt"]


# -- integrity and verification act on the shared program ----------------------


def test_quarantine_covers_every_prime():
    backend = VpuBackend(m=M)
    backend.forward_ntt_batch(_rows(PRIMES), PRIMES)
    backend.quarantine_program("ntt", N)
    assert not backend._programs
    for q in PRIMES:
        with pytest.raises(ProgramQuarantinedError):
            backend.forward_ntt_batch(_rows((q,)), (q,))
    backend.inverse_ntt_batch(_rows(PRIMES), PRIMES)  # another kind runs


def test_invalidating_recompiles_once_and_rebinds():
    backend = VpuBackend(m=M)
    x = _rows(PRIMES)
    want = backend.forward_ntt_batch(x, PRIMES)
    (old,) = backend._programs.values()
    assert backend.invalidate_program("ntt", N)
    assert not backend.invalidate_program("ntt", N)
    assert np.array_equal(backend.forward_ntt_batch(x, PRIMES), want)
    (new,) = backend._programs.values()
    assert new is not old and backend.program_compilations == 2
    assert sorted(new.bound) == sorted(PRIMES)


def test_a_failed_check_invalidates_the_program_once():
    """Not once per prime of the batch."""
    inner = VpuBackend(m=M)
    calls = []

    def invalidate(kind, n, *, galois_k=None):
        calls.append((kind, n, galois_k))
        return True

    inner.invalidate_program = invalidate
    backend = IntegrityBackend(inner, "retry", max_retries=1)
    verdicts = iter([False, True])
    backend._verify = lambda *args: next(verdicts)
    backend.forward_ntt_batch(_rows(PRIMES), PRIMES)
    assert calls == [("ntt", N, None)]


def test_the_hook_verifies_every_binding_once():
    backend = VpuBackend(m=M, verify_programs=True)
    primes = PRIMES + (find_ntt_prime(2 * N, 20),)
    x = _rows(primes)
    backend.forward_ntt_batch(x[:3], PRIMES)
    assert backend.programs_verified == 3
    backend.forward_ntt_batch(x[:3], PRIMES)
    assert backend.programs_verified == 3
    backend.forward_ntt_batch(x, primes)
    assert backend.programs_verified == 4
    backend.invalidate_program("ntt", N)
    backend.forward_ntt_batch(x[:3], PRIMES)
    assert backend.programs_verified == 7
    assert backend.program_compilations == 2


@pytest.mark.parametrize("row", [-4, 2 * M - 4])
def test_a_slot_outside_the_binding_is_refused_and_flagged(row):
    """Below the table or past its end: the unit runs nothing, and the
    interval pass reports P005 against the binding's shape."""
    from repro.analysis.program_check import check_program

    q = PRIMES[0]
    program = Program([Load(0, 0), VMulTwiddle(1, 0, row), Store(1, 0)])
    bind_table(program, q, twiddles=list(range(1, 2 * M + 1)))
    vpu = VectorProcessingUnit(m=M, q=q, regfile_entries=4, memory_rows=1)
    with pytest.raises(ValueError):
        vpu.execute(program)
    assert vpu.stats.cycles == 0 and not vpu.regfile.data.any()
    report = check_program(program, q=q, m=M)
    assert [f.rule for f in report.findings] == ["P005"]


# -- the division-free lanes ----------------------------------------------------


def _run_both_ways(program, q, regs, mem, monkeypatch):
    """Run lock step and on the step loop from one state; return both
    states and how often the lock step took the division-free adder."""
    calls = []
    reduced_add = vpu_module._add_reduced

    def spy(a, b, q):
        calls.append(1)
        return reduced_add(a, b, q)

    monkeypatch.setattr(vpu_module, "_add_reduced", spy)
    states = []
    for hook in (None, FaultInjector()):
        vpu = VectorProcessingUnit(m=M, q=q, regfile_entries=len(regs),
                                   memory_rows=len(mem))
        vpu.install_fault_hook(hook)
        vpu.regfile.data[:] = regs
        vpu.memory.data[:] = mem
        vpu.execute(program)
        states.append((vpu.regfile.data.tolist(), vpu.memory.data.tolist(),
                       vpu.stats.by_type, vpu.regfile.reads,
                       vpu.network.passes))
        if hook is None:
            lock_step_calls = len(calls)
    assert states[0] == states[1]
    (lowered,) = program.lowered.values()
    assert lowered.lockstep is not None
    return lock_step_calls


@pytest.mark.parametrize("wide", [False, True])
def test_a_compiled_program_divides_only_on_unreduced_rows(wide, monkeypatch):
    q = PRIMES[0]
    rng = np.random.default_rng(4)
    x = rng.integers(0, q, N, dtype=np.uint64)
    if wide:
        x[::5] += np.uint64(q)  # a few words in [q, 2q)
    mem = np.zeros((2 * N // M, M), dtype=np.uint64)
    mem[:N // M] = pack_for_ntt(x, M)
    regs = np.zeros((required_registers(M), M), dtype=np.uint64)
    for program in (compile_negacyclic_ntt(N, M), compile_negacyclic_intt(N, M)):
        calls = _run_both_ways(program, q, regs, mem, monkeypatch)
        assert (calls == 0) == wide


def _hand_program(q, twiddles):
    """Every opcode the adders serve, reading input register r2."""
    program = Program([
        Load(0, 0), VAdd(1, 0, 2), VSub(3, 1, 2), Butterfly("dif", 4, 3, 0),
        NttStage("dit", 5, 4, M // 2), VMulTwiddle(6, 5, 0),
        VMulScalar(7, 6, 0), Store(7, 1)])
    bind_table(program, q, twiddles=twiddles, scalars=[q - 2])
    return program


@pytest.mark.parametrize("case", ["reduced", "register", "table"])
def test_a_hand_program_divides_only_when_something_is_unreduced(
        case, monkeypatch):
    q = PRIMES[1]
    rng = np.random.default_rng(9)
    regs = rng.integers(0, q, (8, M), dtype=np.uint64)
    mem = rng.integers(0, q, (2, M), dtype=np.uint64)
    twiddles = rng.integers(0, q, M, dtype=np.uint64)
    if case == "register":
        regs[2, 3] = np.uint64(q + 11)
    elif case == "table":
        twiddles[5] = np.uint64(q + 3)
    calls = _run_both_ways(_hand_program(q, twiddles), q, regs, mem,
                           monkeypatch)
    assert (calls > 0) == (case == "reduced")
