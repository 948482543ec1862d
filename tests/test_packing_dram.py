"""Tests for sparse-secret contexts and the off-chip traffic model."""

import numpy as np
import pytest

from repro.accel.dram import (
    DramModel,
    decomposed_ntt_traffic,
    decomposition_advantage,
    naive_ntt_traffic,
)
from repro.fhe.ckks import CkksContext
from repro.fhe.params import CkksParams


class TestSparseSecret:
    def test_sparse_secret_context_works(self):
        params = CkksParams(n=256, levels=2, scale_bits=26, prime_bits=28,
                            secret_hamming_weight=64)
        ctx = CkksContext(params, seed=73)
        z = np.random.default_rng(5).uniform(-1, 1, params.slots)
        np.testing.assert_allclose(ctx.decrypt(ctx.encrypt(z)).real, z,
                                   atol=1e-3)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            CkksParams(n=256, secret_hamming_weight=257)


class TestDramModel:
    SRAM = 1 << 20  # 1 MiB

    def test_fits_on_chip_equivalence(self):
        n = 4096  # 32 KiB << SRAM
        naive = naive_ntt_traffic(n, self.SRAM)
        decomposed = decomposed_ntt_traffic(n, 64, self.SRAM)
        assert naive.burst_bytes_moved == decomposed.burst_bytes_moved

    def test_strided_naive_pays_burst_waste(self):
        n = 1 << 20  # 8 MiB >> SRAM
        naive = naive_ntt_traffic(n, self.SRAM)
        assert naive.burst_efficiency < 0.5  # most burst bytes wasted

    def test_decomposition_wins_off_chip(self):
        """§II-B quantified: the decomposed schedule moves far fewer
        off-chip bytes once the polynomial exceeds the scratchpad."""
        advantage = decomposition_advantage(1 << 20, 64, self.SRAM)
        assert advantage > 3.0

    def test_advantage_large_at_every_offchip_size(self):
        """The ratio is not monotonic in N (the decomposed schedule's
        dimension count steps every log2(m) bits), but it stays an order
        of magnitude at every off-chip size."""
        for log_n in [18, 20, 22]:
            assert decomposition_advantage(1 << log_n, 64, self.SRAM) > 10

    def test_bandwidth_and_energy(self):
        dram = DramModel(bandwidth_gbps=512, energy_pj_per_byte=15)
        assert dram.transfer_ns(512) == pytest.approx(1.0)
        assert dram.energy_nj(1000) == pytest.approx(15.0)

    def test_tile_must_fit(self):
        with pytest.raises(ValueError):
            decomposed_ntt_traffic(1 << 20, 1024, sram_bytes=1 << 10)
