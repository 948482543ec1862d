"""Pool degradation edge cases: explicit retirement, capacity floor,
and the serving layer's health view."""

import numpy as np
import pytest

from repro.accel.parallel import ParallelVpuPool, PoolExhaustedError
from repro.fault.injector import FaultInjector, FaultSpec
from repro.ntt import vec_ntt_dif
from repro.ntt.tables import get_tables
from repro.obs import observe
from repro.serve.admission import PoolHealth

Q = 998244353
N, M = 256, 16


def _golden(batch: np.ndarray) -> np.ndarray:
    tables = get_tables(N, Q)
    out = np.empty_like(batch)
    for i, row in enumerate(batch):
        natural = np.empty(N, dtype=np.uint64)
        natural[tables.bitrev] = vec_ntt_dif(row % np.uint64(Q), tables)
        out[i] = natural
    return out


class TestRetirement:
    def test_healthy_units_tracks_retirements(self):
        pool = ParallelVpuPool(4, m=M, q=Q)
        assert pool.healthy_units == (0, 1, 2, 3)
        pool.retire(2)
        assert pool.healthy_units == (0, 1, 3)
        assert pool.quarantined == {2}

    def test_retire_is_idempotent(self):
        pool = ParallelVpuPool(3, m=M, q=Q)
        pool.retire(1)
        pool.retire(1)
        assert pool.quarantined == {1}

    def test_out_of_range_raises_value_error(self):
        pool = ParallelVpuPool(2, m=M, q=Q)
        with pytest.raises(ValueError):
            pool.retire(-1)
        with pytest.raises(ValueError):
            pool.retire(2)

    def test_last_unit_raises_typed_error(self):
        pool = ParallelVpuPool(2, m=M, q=Q)
        pool.retire(0)
        with pytest.raises(PoolExhaustedError):
            pool.retire(1)
        # The refusal left the pool serviceable.
        assert pool.healthy_units == (1,)

    def test_single_vpu_pool_cannot_retire(self):
        pool = ParallelVpuPool(1, m=M, q=Q)
        with pytest.raises(PoolExhaustedError):
            pool.retire(0)

    def test_retirement_publishes_obs_gauges(self):
        with observe() as obs:
            pool = ParallelVpuPool(4, m=M, q=Q)
            pool.retire(3)
            assert obs.metrics.gauges["pool.healthy_vpus"] == 3
            assert obs.metrics.gauges["pool.quarantined_vpus"] == 1
            assert obs.metrics.counters["pool.retirements"] == 1


class TestDegradedExecution:
    def test_all_but_one_retired_still_correct(self):
        pool = ParallelVpuPool(4, m=M, q=Q)
        for index in range(3):
            pool.retire(index)
        rng = np.random.default_rng(5)
        batch = rng.integers(0, Q, (6, N), dtype=np.uint64)
        outputs, report = pool.run_ntt_batch(batch, N)
        assert np.array_equal(outputs, _golden(batch))
        # Only the surviving unit burned cycles; utilization reflects
        # the idle retired slots.
        active = [c for c in report.per_vpu_cycles if c]
        assert len(active) == 1
        assert report.makespan_cycles == report.total_cycles
        assert 0.0 < report.utilization <= 0.25 + 1e-9
        assert report.speedup == pytest.approx(1.0)

    def test_half_retired_pool_matches_full_pool_results(self):
        rng = np.random.default_rng(6)
        batch = rng.integers(0, Q, (8, N), dtype=np.uint64)
        full = ParallelVpuPool(4, m=M, q=Q)
        degraded = ParallelVpuPool(4, m=M, q=Q)
        degraded.retire(1)
        degraded.retire(3)
        out_full, _ = full.run_ntt_batch(batch, N)
        out_degraded, report = degraded.run_ntt_batch(batch, N)
        assert np.array_equal(out_full, out_degraded)
        assert all(report.per_vpu_cycles[i] == 0 for i in (1, 3))

    def test_health_fraction_feeds_admission(self):
        pool = ParallelVpuPool(4, m=M, q=Q)
        health = PoolHealth(pool)
        assert health() == 1.0
        pool.retire(0)
        pool.retire(1)
        assert health() == pytest.approx(0.5)


class TestFailedReplaysKeepOneUnit:
    """A failed replay retires its unit only while another healthy unit
    remains; the last one takes the replays and the pool keeps serving."""

    @pytest.mark.parametrize("units,policy", [(1, "degrade"), (2, "retry")])
    def test_every_unit_faulty(self, units, policy):
        pool = ParallelVpuPool(units, m=M, q=Q, policy=policy)
        for vpu in pool.vpus:
            vpu.install_fault_hook(FaultInjector(
                [FaultSpec("alu", "stuck1", cycle=0, bit=33, lane=0)]))
        batch = np.random.default_rng(7).integers(0, Q, (3, N),
                                                  dtype=np.uint64)
        outputs, report = pool.run_ntt_batch(batch, N)
        assert len(pool.healthy_units) == 1
        assert PoolHealth(pool)() == pytest.approx(1 / units)
        assert report.detections >= 1
        assert len(report.quarantined_vpus) == units - 1
        if policy == "degrade":
            assert report.degraded == len(batch)
            assert np.array_equal(outputs, _golden(batch))
