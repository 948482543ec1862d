"""Tests for the accelerator top level (SRAM, NoC, scheduler)."""

import numpy as np
import pytest

from repro.accel import Accelerator, OnChipSram, RingNoc
from repro.arith.primes import find_ntt_prime
from repro.fhe.backend import IntegrityBackend, NumpyBackend


class TestSram:
    def test_bandwidth_cycles(self):
        sram = OnChipSram(banks=16, words_per_bank_per_cycle=64)
        assert sram.words_per_cycle == 1024
        assert sram.access_cycles(1024) == 1
        assert sram.access_cycles(1025) == 2
        assert sram.access_cycles(0) == 0

    def test_access_counters(self):
        sram = OnChipSram()
        sram.access_cycles(100)
        sram.access_cycles(50, write=True)
        assert sram.reads == 100 and sram.writes == 50

    def test_fits(self):
        sram = OnChipSram(capacity_bytes=1 << 20)
        assert sram.fits((1 << 20) // 8)
        assert not sram.fits((1 << 20) // 8 + 1)

    def test_stage_refuses_a_buffer_that_does_not_fit(self):
        sram = OnChipSram(capacity_bytes=64)
        staged, cycles = sram.stage(np.arange(8, dtype=np.uint64))
        assert staged.tolist() == list(range(8)) and cycles == 1
        with pytest.raises(ValueError, match="working set of 9 words does "
                           "not fit the 64-byte SRAM; stage in tiles"):
            sram.stage(np.zeros(9, dtype=np.uint64))
        assert sram.reads == 8  # the refused buffer was never charged

    def test_integrity_backend_surfaces_the_same_message(self):
        q = find_ntt_prime(32, 20)
        tiny = OnChipSram(capacity_bytes=64)
        for policy in ("off", "detect"):
            backend = IntegrityBackend(NumpyBackend(), policy, sram=tiny)
            with pytest.raises(ValueError, match="working set of 16 words "
                               "does not fit the 64-byte SRAM"):
                backend.forward_ntt_batch(
                    np.zeros((1, 16), dtype=np.uint64), (q,))
        roomy = IntegrityBackend(NumpyBackend(), "detect",
                                 sram=OnChipSram(capacity_bytes=128))
        roomy.forward_ntt_batch(np.zeros((1, 16), dtype=np.uint64), (q,))
        assert roomy.sram_cycles == 1

    def test_cost_positive(self):
        c = OnChipSram().cost()
        assert c.area_um2 > 0 and c.power_mw > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            OnChipSram(capacity_bytes=0)
        with pytest.raises(ValueError):
            OnChipSram().access_cycles(-1)


class TestNoc:
    def test_hops(self):
        noc = RingNoc(nodes=4)
        assert noc.hops(0, 1) == 1
        assert noc.hops(3, 0) == 1
        assert noc.hops(1, 0) == 3  # unidirectional

    def test_transfer_pipelining(self):
        noc = RingNoc(nodes=4, link_words=8)
        # 64 words = 8 flits; 2 hops + 7 drain cycles.
        assert noc.transfer_cycles(0, 2, 64) == 9
        assert noc.transfer_cycles(0, 0, 64) == 0
        assert noc.transfer_cycles(0, 1, 0) == 0

    def test_counters(self):
        noc = RingNoc(nodes=4)
        noc.transfer_cycles(0, 2, 16)
        assert noc.total_flits == 2 and noc.total_hops == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            RingNoc(nodes=1)
        noc = RingNoc(nodes=4)
        with pytest.raises(ValueError):
            noc.hops(0, 4)
        with pytest.raises(ValueError):
            noc.transfer_cycles(0, 1, -1)


class TestScheduler:
    def setup_method(self):
        self.acc = Accelerator(num_vpus=8, lanes=64)

    def test_ntt_schedule_balances(self):
        r = self.acc.schedule_ntt(4096, limbs=6, polys=2)
        assert r.kernel_instances == 12
        assert sum(r.vpu_cycles) == 12 * r.cycles_per_kernel
        assert r.vpu_load_balance >= 0.5

    def test_perfect_balance_when_divisible(self):
        r = self.acc.schedule_ntt(4096, limbs=4, polys=2)
        assert r.vpu_load_balance == 1.0

    def test_automorphism_full_throughput(self):
        r = self.acc.schedule_automorphism(4096, limbs=6)
        assert r.cycles_per_kernel == 4096 // 64

    def test_keyswitch_composition(self):
        reports = self.acc.schedule_keyswitch(4096, level=5)
        assert len(reports) == 5
        assert all(r.makespan_cycles > 0 for r in reports)

    def test_hrot_includes_automorphism(self):
        reports = self.acc.schedule_hrot(4096, level=5)
        assert reports[0].operation.startswith("automorphism")
        assert Accelerator.total_makespan(reports) > 0

    def test_hmult_costs_more_than_hrot(self):
        hmult = Accelerator.total_makespan(self.acc.schedule_hmult(4096, 5))
        hrot = Accelerator.total_makespan(self.acc.schedule_hrot(4096, 5))
        assert hmult > hrot * 0.8  # same order; HMult adds tensor+rescale

    def test_more_vpus_reduce_makespan(self):
        small = Accelerator(num_vpus=2, lanes=64)
        big = Accelerator(num_vpus=16, lanes=64)
        ms_small = Accelerator.total_makespan(small.schedule_keyswitch(4096, 5))
        ms_big = Accelerator.total_makespan(big.schedule_keyswitch(4096, 5))
        assert ms_big < ms_small

    def test_cost_rollup(self):
        c = self.acc.cost()
        from repro.hwmodel import our_network_cost, vpu_cost

        vpus_only = vpu_cost(64, our_network_cost(64)).area_um2 * 8
        assert c.area_um2 > vpus_only  # SRAM + NoC add on top

    def test_validation(self):
        with pytest.raises(ValueError):
            Accelerator(num_vpus=0)


class _RowCounter(NumpyBackend):
    """Counts the NTT and automorphism rows an op sends to the backend."""

    def __init__(self):
        super().__init__()
        self.ntt_rows = self.automorphism_rows = 0

    def forward_ntt_batch(self, residues, primes):
        self.ntt_rows += len(primes)
        return super().forward_ntt_batch(residues, primes)

    def inverse_ntt_batch(self, values, primes):
        self.ntt_rows += len(primes)
        return super().inverse_ntt_batch(values, primes)

    def automorphism_eval_batch(self, values, galois_k, primes):
        self.automorphism_rows += len(primes)
        return super().automorphism_eval_batch(values, galois_k, primes)


class TestScheduleMatchesTheCode:
    """Each ``schedule_*`` prices the kernel instances the scheme code
    really dispatches at that level."""

    STEPS = [1, 2, 3]

    @pytest.fixture(scope="class")
    def ctx(self):
        from repro.fhe.ckks import CkksContext
        from repro.fhe.params import CkksParams

        ctx = CkksContext(CkksParams(n=64, levels=6, scale_bits=20,
                                     prime_bits=28), seed=1)
        ctx.generate_galois_keys(self.STEPS)
        return ctx

    @pytest.mark.parametrize("level", range(1, 6))
    def test_ntt_and_automorphism_instances(self, ctx, level):
        from repro.fhe.backend import use_backend
        from repro.fhe.ckks import Ciphertext
        from repro.fhe.rlwe import tensor

        acc = Accelerator(num_vpus=8, lanes=64)
        ct = ctx.mod_reduce(ctx.encrypt(np.ones(ctx.params.slots)), level)
        square = Ciphertext(tensor(ct, ct), ct.scale * ct.scale)
        n = ctx.params.n
        ops = [
            (lambda: ctx.relinearize(square), acc.schedule_keyswitch(n, level)),
            (lambda: ctx.rotate(ct, 1), acc.schedule_hrot(n, level)),
            (lambda: ctx.rotate_hoisted(ct, [1]), acc.schedule_hrot(n, level)),
            (lambda: ctx.rotate_hoisted(ct, self.STEPS),
             acc.schedule_hrot(n, level, rotations=len(self.STEPS))),
            (lambda: ctx.multiply(ct, ct), acc.schedule_hmult(n, level)),
        ]
        for run, reports in ops:
            counter = _RowCounter()
            with use_backend(counter):
                run()
            priced = [sum(r.kernel_instances for r in reports
                          if r.operation.startswith(kind))
                      for kind in ("ntt-", "automorphism-")]
            assert priced == [counter.ntt_rows, counter.automorphism_rows]
