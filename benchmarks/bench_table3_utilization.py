"""Table III: throughput utilization of NTT and automorphism on the VPU
for N = 2^10 .. 2^20.

The utilization numbers come from the analytic cycle model; the timed
kernel *executes* a compiled full NTT on the behavioral VPU at an
executable size and cross-checks that the model's compute/transpose
terms match the program instruction-for-instruction."""

import numpy as np
import pytest

from conftest import record
from repro.core import NttStage, VectorProcessingUnit
from repro.core.isa import NetworkPass
from repro.mapping import compile_ntt, pack_for_ntt, required_registers
from repro.perf import PAPER_TABLE_III, table3_rows
from repro.perf.cycles import ntt_cycle_model
from repro.perf.utilization import format_table3

Q = 998244353


def run_executable_ntt(m=16, n=4096):
    from repro.mapping import unpack_ntt_result
    from repro.ntt import vec_ntt_dif
    from repro.ntt.tables import get_tables

    vpu = VectorProcessingUnit(m=m, q=Q,
                               regfile_entries=required_registers(m),
                               memory_rows=2 * n // m)
    x = np.random.default_rng(0).integers(0, Q, n, dtype=np.uint64)
    vpu.memory.data[:n // m] = pack_for_ntt(x, m)
    prog = compile_ntt(n, m)
    stats = vpu.run_fresh(prog)
    t = get_tables(n, Q)
    expected = np.empty(n, dtype=np.uint64)
    expected[t.bitrev] = vec_ntt_dif(x, t)
    assert np.array_equal(unpack_ntt_result(vpu.memory, n, m), expected)
    return prog, stats


def test_table3(benchmark, results_dir):
    prog, stats = benchmark(run_executable_ntt)
    # Model validation against the executed program (m=16, N=4096 = 16^3).
    model = ntt_cycle_model(4096, 16)
    assert prog.count(NttStage) == model.compute_cycles
    assert prog.count(NetworkPass) == model.network_only_cycles
    assert stats.by_type["NttStage"] == model.compute_cycles

    rows = table3_rows()
    record(results_dir, "table3_utilization", format_table3(rows))
    for row in rows:
        paper_ntt, paper_autom = PAPER_TABLE_III[row.n]
        assert abs(row.ntt_utilization - paper_ntt) < 0.05
        assert row.automorphism_utilization == paper_autom == 1.0


@pytest.mark.parametrize("n", [2**10, 2**12, 2**14])
def test_table3_rows_live_at_64_lanes(benchmark, n):
    """Execute Table III rows natively at m = 64 — including the ragged
    sizes (2^10 = 64x16, 2^14 = 64x64x4, packed grouped-CG layout) —
    and confirm the cycle model's compute/transpose terms against the
    running program."""
    _, stats = benchmark.pedantic(lambda: run_executable_ntt(m=64, n=n),
                                  rounds=1, iterations=1)
    model = ntt_cycle_model(n, 64)
    assert stats.by_type["NttStage"] == model.compute_cycles
    assert stats.by_type.get("NetworkPass", 0) == model.network_only_cycles
