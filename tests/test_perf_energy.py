"""Tests for the dynamic-energy model and its agreement with the static
power model."""

import numpy as np
import pytest

from repro.core import VectorProcessingUnit
from repro.hwmodel import our_network_cost, vpu_cost
from repro.mapping import compile_ntt, pack_for_ntt, required_registers
from repro.mapping.automorphism import compile_automorphism
from repro.mapping import automorphism_layout_pack
from repro.automorphism import paper_sigma
from repro.perf.energy import estimate_program_energy, per_cycle_energies

Q = 998244353


def run_ntt(m, n):
    vpu = VectorProcessingUnit(m=m, q=Q,
                               regfile_entries=required_registers(m),
                               memory_rows=2 * n // m)
    vpu.memory.data[:n // m] = pack_for_ntt(
        np.random.default_rng(0).integers(0, Q, n, dtype=np.uint64), m)
    return vpu.run_fresh(compile_ntt(n, m))


class TestEnergyModel:
    def test_per_cycle_energies_positive(self):
        e = per_cycle_energies(64)
        assert all(v > 0 for v in e.values())

    def test_breakdown_sums(self):
        stats = run_ntt(16, 256)
        report = estimate_program_energy(stats, 16)
        parts = (report.network_pj + report.multiplier_pj + report.adder_pj
                 + report.regfile_pj + report.memory_pj)
        assert report.total_pj == pytest.approx(parts)
        assert report.total_pj > 0

    def test_ntt_average_power_near_static_model(self):
        """Closing the loop: integrating per-instruction energies over an
        executed NTT must land near the static VPU power (the static
        number assumes the paper's ~80% utilization, so agreement within
        2x is the expected band)."""
        m = 64
        stats = run_ntt(m, 4096)
        report = estimate_program_energy(stats, m)
        static = vpu_cost(m, our_network_cost(m)).power_mw
        assert 0.3 * static < report.average_power_mw < 2.0 * static

    def test_automorphism_cheaper_than_ntt(self):
        """Per element moved, the single-pass automorphism burns less
        energy than an NTT stage (no butterflies)."""
        m, n = 64, 4096
        ntt_stats = run_ntt(m, n)
        vpu = VectorProcessingUnit(m=m, q=Q, memory_rows=2 * n // m)
        x = np.random.default_rng(1).integers(0, Q, n, dtype=np.uint64)
        vpu.memory.data[:n // m] = automorphism_layout_pack(x, m)
        autom_stats = vpu.run_fresh(compile_automorphism(paper_sigma(n, 3), m))
        ntt_energy = estimate_program_energy(ntt_stats, m).total_pj
        autom_energy = estimate_program_energy(autom_stats, m).total_pj
        assert autom_energy < ntt_energy / 5

    def test_network_share_grows_with_transposes(self):
        """Multi-dimensional NTTs spend a bigger energy share in the
        network than single-dimension ones."""
        single = run_ntt(16, 16)   # one dimension, no transposes
        multi = run_ntt(16, 4096)  # three dimensions
        r1 = estimate_program_energy(single, 16)
        r3 = estimate_program_energy(multi, 16)
        share1 = r1.network_pj / r1.total_pj
        share3 = r3.network_pj / r3.total_pj
        assert share3 > share1
