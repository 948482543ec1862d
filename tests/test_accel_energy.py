"""Tests for scheduled-operation energy accounting."""

import pytest

from repro.accel import Accelerator


class TestOperationEnergy:
    def setup_method(self):
        self.acc = Accelerator(num_vpus=8, lanes=64)

    def test_positive_and_ordered(self):
        hadd = self.acc.operation_energy_nj(
            [self.acc.schedule_elementwise(4096, 6)])
        hrot = self.acc.operation_energy_nj(self.acc.schedule_hrot(4096, 5))
        hmult = self.acc.operation_energy_nj(self.acc.schedule_hmult(4096, 5))
        assert 0 < hadd < hrot
        assert hrot < hmult * 1.5

    def test_scales_with_n(self):
        small = self.acc.operation_energy_nj(self.acc.schedule_hrot(1024, 3))
        large = self.acc.operation_energy_nj(self.acc.schedule_hrot(4096, 3))
        assert large > small

    def test_magnitude_sane(self):
        """An HMult at N=4096 should land in the tens-of-uJ range — the
        order of magnitude published FHE-accelerator papers report."""
        hmult = self.acc.operation_energy_nj(self.acc.schedule_hmult(4096, 5))
        assert 1e2 < hmult < 1e6  # 0.1 uJ .. 1 mJ window

    def test_idle_floor_counts(self):
        """An unbalanced schedule (1 kernel on 8 VPUs) still pays the
        idle floor on the other seven."""
        report = self.acc.schedule_ntt(4096, limbs=1, polys=1)
        energy = self.acc.operation_energy_nj([report])
        busy_only = (report.cycles_per_kernel
                     * self.acc.cost().power_mw / 8) / 1e3
        assert energy > busy_only * 0.5


class TestHoistedSchedule:
    def test_hoisting_beats_individual(self):
        acc = Accelerator(num_vpus=8, lanes=64)
        individual = 4 * Accelerator.total_makespan(acc.schedule_hrot(4096, 5))
        hoisted = Accelerator.total_makespan(
            acc.schedule_hrot(4096, 5, rotations=4))
        assert hoisted < individual

    def test_one_rotation_is_the_plain_rotation(self):
        """One rotation permutes ``c0`` and ``c1`` and keyswitches the
        permuted ``c1``: exactly an automorphism pass over both parts
        and one keyswitch."""
        acc = Accelerator(num_vpus=8, lanes=64)
        assert acc.schedule_hrot(4096, 5, rotations=1) == (
            [acc.schedule_automorphism(4096, 6)]
            + acc.schedule_keyswitch(4096, 5))

    def test_validation(self):
        acc = Accelerator(num_vpus=8, lanes=64)
        with pytest.raises(ValueError):
            acc.schedule_hrot(4096, 5, rotations=0)
