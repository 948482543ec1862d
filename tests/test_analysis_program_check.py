"""Interval verification of compiled VPU micro-programs, plus the
backend debug hook that runs it on every fresh compilation."""

import numpy as np
import pytest

from repro.analysis.program_check import (
    ProgramVerificationError,
    check_program,
)
from repro.arith.primes import find_ntt_prime
from repro.core.isa import Load, Program, Store, VMulTwiddle
from repro.core.vpu import bind_table
from repro.fhe.backend import VpuBackend
from repro.mapping.ntt import compile_negacyclic_intt, compile_negacyclic_ntt

M = 16
N = 64
Q = find_ntt_prime(2 * N, 28)


def _one_twiddle_row(label, q, twiddles):
    """Load, multiply by one hand-bound twiddle row under ``q``, store."""
    program = Program(label=label, instructions=[
        Load(dst=0, addr=0),
        VMulTwiddle(dst=1, a=0, row=0),
        Store(src=1, addr=0),
    ])
    bind_table(program, q, twiddles=twiddles)
    return program


class TestCheckProgram:
    @pytest.mark.parametrize("compiler", [compile_negacyclic_ntt,
                                          compile_negacyclic_intt])
    def test_compiled_ntt_programs_verify_clean(self, compiler):
        program = compiler(N, M)
        report = check_program(program, q=Q, m=M)
        assert report.ok, [str(f) for f in report.findings]
        assert report.instructions == len(list(program))
        assert 0 < report.max_intermediate < Q * Q

    def test_unreduced_twiddle_flagged(self):
        program = _one_twiddle_row("bad-twiddle", Q, [Q] * M)  # not < q
        report = check_program(program, q=Q, m=M)
        assert not report.ok
        assert any(f.rule == "P003" for f in report.findings)

    def test_read_before_write_flagged(self):
        program = Program(label="uninit", instructions=[
            Store(src=3, addr=0),
        ])
        report = check_program(program, q=Q, m=M)
        assert any(f.rule == "P004" for f in report.findings)

    def test_wide_input_bound_overflows_product(self):
        """Lazy (< 2q) inputs into a twiddle product overflow the
        Barrett precondition when q is at the vectorized ceiling."""
        q = find_ntt_prime(2 * N, 31)
        program = _one_twiddle_row("lazy-in", q, [q - 1] * M)
        clean = check_program(program, q=q, m=M)
        assert clean.ok
        lazy_in = check_program(program, q=q, m=M, input_bound=2 * q - 1)
        assert not lazy_in.ok
        assert any(f.rule == "P002" for f in lazy_in.findings)

    def test_raise_on_error_carries_report(self):
        program = Program(label="bad", instructions=[Store(src=0, addr=0)])
        report = check_program(program, q=Q, m=M)
        with pytest.raises(ProgramVerificationError) as exc:
            report.raise_on_error()
        assert exc.value.report is report
        assert "bad" in str(exc.value)

    def test_rejects_bad_shapes(self):
        program = Program(label="x", instructions=[])
        with pytest.raises(ValueError):
            check_program(program, q=1, m=M)
        with pytest.raises(ValueError):
            check_program(program, q=Q, m=12)


class TestBackendVerifyHook:
    def test_verifies_each_fresh_compilation_once(self):
        backend = VpuBackend(m=M, verify_programs=True)
        rng = np.random.default_rng(3)
        coeffs = rng.integers(0, Q, size=N, dtype=np.uint64)
        coeffs = coeffs[None, :]  # one row is the L = 1 batch
        evals = backend.forward_ntt_batch(coeffs, (Q,))
        np.testing.assert_array_equal(
            backend.inverse_ntt_batch(evals, (Q,)), coeffs)
        assert backend.programs_verified == 2  # ntt + intt
        backend.forward_ntt_batch(coeffs, (Q,))  # cache hit: no re-verification
        assert backend.programs_verified == 2

    def test_default_off_and_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_PROGRAMS", raising=False)
        assert not VpuBackend(m=M).verify_programs
        monkeypatch.setenv("REPRO_VERIFY_PROGRAMS", "1")
        assert VpuBackend(m=M).verify_programs

    def test_bad_program_never_enters_cache(self):
        backend = VpuBackend(m=M, verify_programs=True)
        bad = _one_twiddle_row("bad", Q, [Q] * M)

        def compile_bad(*args, **kwargs):
            return bad

        import repro.mapping.ntt as mapping_ntt
        original = mapping_ntt.compile_negacyclic_ntt
        mapping_ntt.compile_negacyclic_ntt = compile_bad
        try:
            with pytest.raises(ProgramVerificationError):
                backend._program("ntt", N, (Q,))
        finally:
            mapping_ntt.compile_negacyclic_ntt = original
        assert not backend._programs  # nothing cached

    def test_program_its_unit_refuses_never_enters_cache(self, monkeypatch):
        # No interval rule covers register range; the unit refuses it.
        import repro.mapping.ntt as mapping_ntt
        from repro.mapping import required_registers

        entries = required_registers(M)
        monkeypatch.setattr(
            mapping_ntt, "compile_negacyclic_ntt",
            lambda *args, **kwargs: Program(label="deep", instructions=[
                Load(dst=entries, addr=0), Store(src=entries, addr=0)]))
        backend = VpuBackend(m=M, verify_programs=True)
        with pytest.raises(IndexError):
            backend._program("ntt", N, (Q,))
        assert not backend._programs

    def test_replay_reuses_the_verified_lowering(self):
        backend = VpuBackend(m=M, verify_programs=True)
        program = backend._program("ntt", N, (Q,))
        (lowered,) = program.lowered.values()  # one decode, verified
        coeffs = np.arange(N, dtype=np.uint64)[None, :]
        backend.forward_ntt_batch(coeffs, (Q,))
        assert backend._program("ntt", N, (Q,)) is program
        (replayed,) = program.lowered.values()
        assert replayed is lowered
