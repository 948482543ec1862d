"""Register and memory demands of VPU programs, as ``analyze_dataflow``
reports them from the lowered steps' def-use model."""

import pytest

from repro.analysis.dataflow import analyze_dataflow
from repro.automorphism import paper_sigma
from repro.automorphism.mapping import galois_eval_permutation
from repro.core import (
    Load,
    NetworkConfig,
    NetworkPass,
    Program,
    Store,
    VAdd,
    VMul,
    VMulTwiddle,
)
from repro.mapping import (
    compile_automorphism,
    compile_intt,
    compile_ntt,
    required_registers,
)
from repro.mapping.ntt import compile_negacyclic_intt, compile_negacyclic_ntt

Q = 998244353


def facts(program: Program, m: int = 16):
    report = analyze_dataflow(program, m=m)
    return report, report.stats


class TestAnalyzeBasics:
    def test_small_program(self):
        prog = Program([
            Load(0, 3),
            VMul(1, 0, 0),
            VAdd(2, 1, 0),
            Store(2, 7),
        ])
        a, stats = facts(prog)
        assert a.instructions == 4
        assert stats.by_type == {"Load": 1, "VMul": 1, "VAdd": 1, "Store": 1}
        assert a.registers_used == frozenset({0, 1, 2})
        assert a.register_pressure == 3
        assert a.memory_rows_read == frozenset({3})
        assert a.memory_rows_written == frozenset({7})
        assert stats.multiplier_busy == 1 and stats.adder_busy == 1

    def test_liveness_peak(self):
        # r0 and r1 both live across the VAdd; r2 short-lived.
        prog = Program([
            Load(0, 0),
            Load(1, 1),
            VAdd(2, 0, 1),
            VMul(3, 0, 1),
            Store(2, 2),
            Store(3, 3),
        ])
        a, _ = facts(prog)
        assert a.peak_live_registers == 3  # r0, r1, r2 before the VMul

    def test_twiddle_port_is_not_a_live_register(self):
        # VMulTwiddle charges a read port for its twiddle stream, but
        # consumes only `a`: r1 is defined, never live before it.
        prog = Program([
            Load(0, 0),
            VMulTwiddle(1, 0, 0),
            Store(1, 0),
        ])
        a, _ = facts(prog)
        assert a.peak_live_registers == 1
        assert a.registers_used == frozenset({0, 1})

    def test_diagonal_window_counted(self):
        prog = Program([
            NetworkPass(1, 4, NetworkConfig(), src_rot=0, src_window=8),
        ])
        a, _ = facts(prog)
        assert a.register_pressure == 12  # window [4, 12)

    def test_empty_program(self):
        a, _ = facts(Program())
        assert a.instructions == 0
        assert a.register_pressure == 0
        assert a.peak_live_registers == 0
        assert a.memory_footprint_rows == 0


class TestCompiledPrograms:
    @pytest.mark.parametrize("m,n", [(8, 64), (16, 256), (8, 32)])
    def test_ntt_fits_declared_register_budget(self, m, n):
        """The compiler's required_registers() promise holds for every
        compiled program, square or ragged."""
        a, _ = facts(compile_ntt(n, m), m)
        assert a.register_pressure <= required_registers(m)

    def test_ntt_memory_footprint(self):
        m, n = 8, 512
        a, _ = facts(compile_ntt(n, m), m)
        assert a.memory_footprint_rows == n // m

    def test_automorphism_reads_and_writes_disjoint_regions(self):
        n, m = 512, 8
        a, stats = facts(compile_automorphism(paper_sigma(n, 3), m), m)
        assert a.memory_rows_read == frozenset(range(n // m))
        assert a.memory_rows_written == frozenset(range(n // m, 2 * n // m))
        assert stats.network_passes == n // m

    @pytest.mark.parametrize("kind, expected", [
        ("ntt", (130, 127, 64, 896, 832, 768)),
        ("sigma", (2, 1, 128, 64, 0, 0)),
    ])
    def test_paper_shapes(self, kind, expected):
        """The register file and scratchpad the m = 64 programs of the
        paper's Table III need, at n = 4096."""
        program = (compile_ntt(4096, 64) if kind == "ntt" else
                   compile_automorphism(paper_sigma(4096, 3), 64))
        a, stats = facts(program, 64)
        assert (a.register_pressure, a.peak_live_registers,
                a.memory_footprint_rows, stats.network_passes,
                stats.multiplier_busy, stats.adder_busy) == expected


# -- the def-use model against the port model ---------------------------------


def port_model_facts(program: Program) -> tuple:
    """The same facts from the instructions' port model: every register a
    port touches, a diagonal read's whole window.  For compiled programs,
    whose twiddle multiplies run in place, the two models agree."""
    def touched(instr, ports):
        regs = list(ports)
        if isinstance(instr, NetworkPass) and instr.src_rot is not None:
            regs += range(instr.src, instr.src + instr.src_window)
        return regs

    live, peak, used = set(), 0, set()
    for instr in reversed(program.instructions):
        live.difference_update(instr.write_regs())
        live.update(touched(instr, instr.read_regs()))
        peak = max(peak, len(live))
        used.update(touched(instr, instr.read_regs() + instr.write_regs()))
    rows = {kind: frozenset(i.addr for i in program if isinstance(i, kind))
            for kind in (Load, Store)}
    busy = [sum(getattr(i, flag) for i in program)
            for flag in ("uses_network", "uses_multiplier", "uses_adder")]
    return (max(used, default=-1) + 1, peak, rows[Load], rows[Store], *busy)


def _sweep():
    for m in (4, 8, 16, 64):
        for n in sorted({m, 2 * m, 4 * m, 8 * m, 16 * m, 64 * m}):
            if n <= 4096:
                for kind in ("ntt", "intt", "nntt", "nintt", "auto"):
                    yield pytest.param(kind, m, n, id=f"{kind}-{m}-{n}")


@pytest.mark.parametrize("kind, m, n", list(_sweep()))
def test_def_use_facts_match_the_port_model(kind, m, n):
    if kind == "auto":
        programs = [compile_automorphism(galois_eval_permutation(n, k), m)
                    for k in (5, 2 * n - 1)]
    else:
        compile_ = {"ntt": compile_ntt, "intt": compile_intt,
                    "nntt": compile_negacyclic_ntt,
                    "nintt": compile_negacyclic_intt}[kind]
        programs = [compile_(n, m)]
    for program in programs:
        a, stats = facts(program, m)
        assert (a.register_pressure, a.peak_live_registers,
                a.memory_rows_read, a.memory_rows_written,
                stats.network_passes, stats.multiplier_busy,
                stats.adder_busy) == port_model_facts(program)
