"""Tests for the cycle/utilization models, including validation against
the executable compiler."""

import numpy as np
import pytest

from repro.core import NttStage, VectorProcessingUnit
from repro.core.isa import NetworkPass
from repro.mapping import compile_ntt, pack_for_ntt, required_registers
from repro.perf import (
    PAPER_TABLE_III,
    automorphism_cycle_model,
    ntt_cycle_model,
    table3_rows,
    utilization_report,
)
from repro.perf.cycles import baseline_automorphism_passes, pipeline_depth
from repro.perf.utilization import format_table3

Q = 998244353


class TestCycleModelValidation:
    """The analytic compute/transpose terms must match the compiled
    programs instruction-for-instruction at executable sizes."""

    @pytest.mark.parametrize("m,n", [(4, 16), (4, 64), (8, 64), (8, 512),
                                     (16, 256), (64, 4096),
                                     # ragged sizes (packed layout):
                                     (8, 32), (16, 512), (64, 1024),
                                     (16, 2048)])
    def test_counts_match_compiler(self, m, n):
        prog = compile_ntt(n, m)
        model = ntt_cycle_model(n, m)
        fused_stages = prog.count(NttStage)
        transpose_passes = prog.count(NetworkPass)
        assert fused_stages == model.compute_cycles
        assert transpose_passes == model.network_only_cycles

    def test_executed_stats_match_model(self):
        m, n = 8, 512
        vpu = VectorProcessingUnit(m=m, q=Q,
                                   regfile_entries=required_registers(m),
                                   memory_rows=2 * n // m)
        vpu.memory.data[:n // m] = pack_for_ntt(
            np.random.default_rng(0).integers(0, Q, n, dtype=np.uint64), m)
        stats = vpu.run_fresh(compile_ntt(n, m))
        model = ntt_cycle_model(n, m)
        assert stats.by_type["NttStage"] == model.compute_cycles
        assert stats.by_type.get("NetworkPass", 0) == model.network_only_cycles


class TestTable3:
    def test_paper_band(self):
        """NTT utilization must land in the paper's 70-90% band."""
        for row in table3_rows():
            assert 0.70 <= row.ntt_utilization <= 0.90

    def test_automorphism_always_full(self):
        for row in table3_rows():
            assert row.automorphism_utilization == 1.0

    @pytest.mark.parametrize("n", sorted(PAPER_TABLE_III))
    def test_within_tolerance_of_paper(self, n):
        """Each row within 5 percentage points of the published value."""
        row = utilization_report(n)
        assert abs(row.ntt_utilization - PAPER_TABLE_III[n][0]) < 0.05

    def test_dips_at_dimension_boundaries(self):
        """§V-C: utilization drops when N crosses 2^12 and 2^18 (one more
        decomposition dimension -> one more transposition round)."""
        u = {n: utilization_report(n).ntt_utilization
             for n in sorted(PAPER_TABLE_III)}
        assert u[2**14] < u[2**12]
        assert u[2**20] < u[2**18]
        # And recovers while the dimension count is constant.
        assert u[2**14] < u[2**16] < u[2**18]

    def test_formatting(self):
        text = format_table3()
        assert "2^12" in text and "paper" in text

    def test_other_lane_counts(self):
        row = utilization_report(2**12, m=32)
        assert 0.5 < row.ntt_utilization <= 1.0
        assert row.paper_ntt is None  # paper only reports m=64


class TestCycleModelStructure:
    def test_pipeline_depth(self):
        assert pipeline_depth(64) == 8
        assert pipeline_depth(4) == 3  # merged CG at m=4

    def test_single_dimension_has_no_transposes(self):
        model = ntt_cycle_model(64, 64)
        assert model.network_only_cycles == 0

    def test_automorphism_model(self):
        model = automorphism_cycle_model(2**16, 64)
        assert model.total_cycles == 2**16 // 64
        assert model.utilization == 1.0

    def test_ideal_equals_butterfly_work(self):
        """Ideal cycles = N*log2(N)/m (all m/2 butterfly pairs busy)."""
        model = ntt_cycle_model(2**12, 64)
        assert model.ideal_cycles == 2**12 * 12 // 64


class TestBaselinePassCounts:
    def test_single_pass_designs(self):
        for design in ["ours", "bts", "ark", "sharp"]:
            assert baseline_automorphism_passes(2**12, 64, design) == 64

    def test_f1_needs_more_passes(self):
        f1 = baseline_automorphism_passes(2**12, 64, "f1")
        assert f1 > baseline_automorphism_passes(2**12, 64, "ours")

    def test_unknown_design(self):
        with pytest.raises(ValueError):
            baseline_automorphism_passes(2**12, 64, "nvidia")
