"""Tests for assorted extensions: negative rotations and the
scheduler-vs-functional-pool cross-check."""

import numpy as np

from repro.accel import Accelerator
from repro.accel.parallel import ParallelVpuPool
from repro.fhe.ckks import CkksContext
from repro.fhe.params import toy_params
from repro.perf.cycles import ntt_cycle_model

Q = 998244353


class TestNegativeRotation:
    def test_rotate_by_negative_steps(self):
        ctx = CkksContext(toy_params(), seed=61)
        slots = ctx.params.slots
        ctx.generate_galois_keys([1, slots - 1])
        z = np.random.default_rng(0).uniform(-1, 1, slots)
        ct = ctx.encrypt(z)
        # -1 === slots-1 (mod slots): a right rotation.
        out = ctx.decrypt(ctx.rotate(ct, -1))
        np.testing.assert_allclose(out.real, np.roll(z, 1), atol=2e-3)

    def test_left_then_right_is_identity(self):
        ctx = CkksContext(toy_params(), seed=62)
        slots = ctx.params.slots
        ctx.generate_galois_keys([1, slots - 1])
        z = np.random.default_rng(1).uniform(-1, 1, slots)
        out = ctx.decrypt(ctx.rotate(ctx.rotate(ctx.encrypt(z), 1), -1))
        np.testing.assert_allclose(out.real, z, atol=3e-3)


class TestSchedulerVsFunctionalPool:
    def test_balance_predictions_agree(self):
        """The analytic scheduler and the functional pool must agree on
        load balance for a divisible batch."""
        m, n, vpus, batch = 16, 256, 4, 8
        acc = Accelerator(num_vpus=vpus, lanes=m)
        report = acc.schedule_ntt(n, limbs=batch, polys=1)
        pool = ParallelVpuPool(num_vpus=vpus, m=m, q=Q)
        data = np.random.default_rng(0).integers(0, Q, (batch, n),
                                                 dtype=np.uint64)
        _, run = pool.run_ntt_batch(data, n)
        assert report.vpu_load_balance == run.speedup / vpus == 1.0

    def test_cycle_orders_of_magnitude_agree(self):
        """The scheduler's per-kernel cycles (analytic) and the executed
        program's instruction count agree up to the documented
        load/store overlap."""
        m, n = 16, 256
        model = ntt_cycle_model(n, m)
        pool = ParallelVpuPool(num_vpus=1, m=m, q=Q)
        data = np.random.default_rng(1).integers(0, Q, (1, n), dtype=np.uint64)
        _, run = pool.run_ntt_batch(data, n)
        executed = run.per_vpu_cycles[0]
        # Executed includes loads/stores the streaming SRAM overlaps.
        assert model.total_cycles <= executed <= 3 * model.total_cycles
