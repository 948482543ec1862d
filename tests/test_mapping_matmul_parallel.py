"""Tests for the multi-VPU pool."""

import numpy as np
import pytest

from repro.accel.parallel import ParallelVpuPool
from repro.ntt import vec_ntt_dif
from repro.ntt.tables import get_tables

Q = 998244353


class TestParallelPool:
    def test_bit_identical_to_single_vpu(self):
        n, m = 256, 16
        pool = ParallelVpuPool(num_vpus=4, m=m, q=Q)
        rng = np.random.default_rng(2)
        batch = rng.integers(0, Q, (6, n), dtype=np.uint64)
        outputs, report = pool.run_ntt_batch(batch, n)
        t = get_tables(n, Q)
        for i in range(6):
            expected = np.empty(n, dtype=np.uint64)
            expected[t.bitrev] = vec_ntt_dif(batch[i], t)
            np.testing.assert_array_equal(outputs[i], expected)
        assert report.instances == 6

    def test_speedup_and_balance(self):
        n, m = 256, 16
        pool = ParallelVpuPool(num_vpus=3, m=m, q=Q)
        batch = np.random.default_rng(3).integers(0, Q, (6, n), dtype=np.uint64)
        _, report = pool.run_ntt_batch(batch, n)
        # 6 instances over 3 VPUs: perfect balance, 3x speedup.
        assert report.speedup == pytest.approx(3.0)
        assert len(set(report.per_vpu_cycles)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelVpuPool(0, 16, Q)
        pool = ParallelVpuPool(2, 16, Q)
        with pytest.raises(ValueError):
            pool.run_ntt_batch(np.zeros((2, 100), dtype=np.uint64), 256)
