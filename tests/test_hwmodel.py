"""Tests for the 7 nm area/power models, pinned to paper Tables II/IV."""

import pytest

from repro.baselines import NETWORK_COSTS, f1_network_cost
from repro.hwmodel import (
    PAPER_TABLE_II,
    PAPER_TABLE_IV,
    CostReport,
    SramMacro,
    barrett_multiplier_cost,
    lane_cost,
    modular_adder_cost,
    multistage_network_cost,
    mux_stage_cost,
    our_network_cost,
    register_file_cost,
    vpu_cost,
)
from repro.hwmodel.network_cost import control_table_cost


class TestCostReport:
    def test_add(self):
        c = CostReport(1.0, 2.0, "a") + CostReport(3.0, 4.0, "b")
        assert c.area_um2 == 4.0 and c.power_mw == 6.0
        assert c.label == "a + b"

    def test_mul(self):
        c = 3 * CostReport(1.0, 2.0)
        assert c.area_um2 == 3.0 and c.power_mw == 6.0

    def test_scaled_power(self):
        c = CostReport(1.0, 2.0).scaled_power(1.5)
        assert c.area_um2 == 1.0 and c.power_mw == 3.0

    def test_ratio(self):
        ra, rp = CostReport(4.0, 6.0).ratio_to(CostReport(2.0, 3.0))
        assert ra == 2.0 and rp == 2.0


class TestComponents:
    def test_all_positive(self):
        for c in [mux_stage_cost(64), barrett_multiplier_cost(),
                  modular_adder_cost(), register_file_cost(), lane_cost()]:
            assert c.area_um2 > 0 and c.power_mw > 0

    def test_lane_partition(self):
        parts = (barrett_multiplier_cost() + modular_adder_cost()
                 + register_file_cost())
        assert lane_cost().area_um2 == pytest.approx(parts.area_um2)
        assert lane_cost().power_mw == pytest.approx(parts.power_mw)

    def test_multiplier_dominates_lane(self):
        assert barrett_multiplier_cost().area_um2 > register_file_cost().area_um2
        assert register_file_cost().area_um2 > modular_adder_cost().area_um2

    def test_scaling_with_width(self):
        # Multiplier area is quadratic in width; adder linear.
        assert barrett_multiplier_cost(32).area_um2 == pytest.approx(
            barrett_multiplier_cost(64).area_um2 / 4
        )
        assert modular_adder_cost(32).area_um2 == pytest.approx(
            modular_adder_cost(64).area_um2 / 2
        )


class TestSram:
    def test_validation(self):
        with pytest.raises(ValueError):
            SramMacro(bits=0, io_bits=8)
        with pytest.raises(ValueError):
            SramMacro(bits=8, io_bits=8, duty=1.5)

    def test_area_grows_with_bits_and_io(self):
        small = SramMacro(bits=1024, io_bits=64)
        big = SramMacro(bits=4096, io_bits=64)
        wide = SramMacro(bits=1024, io_bits=256)
        assert big.area_um2 > small.area_um2
        assert wide.area_um2 > small.area_um2

    def test_power_scales_with_duty(self):
        full = SramMacro(bits=1024, io_bits=64, duty=1.0)
        half = SramMacro(bits=1024, io_bits=64, duty=0.5)
        assert half.power_mw < full.power_mw


class TestNetworkModel:
    def test_multistage_validation(self):
        with pytest.raises(ValueError):
            multistage_network_cost(63, 4)
        with pytest.raises(ValueError):
            multistage_network_cost(64, 0)

    def test_control_table_is_small(self):
        """Paper: ~2 kbit at m=64, 'a small area cost' — under 10% of the
        network."""
        table = control_table_cost(64)
        net = our_network_cost(64)
        assert table.area_um2 < 0.1 * net.area_um2

    @pytest.mark.parametrize("m", sorted(PAPER_TABLE_IV))
    def test_table4_regression(self, m):
        """Our network model must stay within 10% of every Table IV row."""
        area, power = PAPER_TABLE_IV[m]
        c = our_network_cost(m)
        assert c.area_um2 == pytest.approx(area, rel=0.10)
        assert c.power_mw == pytest.approx(power, rel=0.10)

    def test_table4_superlinear_scaling(self):
        """Paper §V-D: ~2.27x area and ~2.24x power per lane doubling."""
        a4, p4 = our_network_cost(4).area_um2, our_network_cost(4).power_mw
        a256, p256 = our_network_cost(256).area_um2, our_network_cost(256).power_mw
        area_per_doubling = (a256 / a4) ** (1 / 6)
        power_per_doubling = (p256 / p4) ** (1 / 6)
        assert 2.1 < area_per_doubling < 2.4
        assert 2.1 < power_per_doubling < 2.4


class TestTable2:
    @pytest.mark.parametrize("design", sorted(PAPER_TABLE_II))
    def test_network_values(self, design):
        net_area, _, net_power, _ = PAPER_TABLE_II[design]
        c = NETWORK_COSTS[design](64)
        assert c.area_um2 == pytest.approx(net_area, rel=0.12)
        assert c.power_mw == pytest.approx(net_power, rel=0.12)

    @pytest.mark.parametrize("design", sorted(PAPER_TABLE_II))
    def test_vpu_values(self, design):
        _, vpu_area, _, vpu_power = PAPER_TABLE_II[design]
        v = vpu_cost(64, NETWORK_COSTS[design](64))
        assert v.area_um2 == pytest.approx(vpu_area, rel=0.05)
        assert v.power_mw == pytest.approx(vpu_power, rel=0.05)

    def test_headline_ratios(self):
        """The abstract's claim: up to 9.4x area and 6.0x power savings for
        the network; up to 1.2x area and 1.1x power for the whole VPU."""
        ours = our_network_cost(64)
        f1 = f1_network_cost(64)
        ra, rp = f1.ratio_to(ours)
        assert ra == pytest.approx(9.4, rel=0.10)
        assert rp == pytest.approx(6.0, rel=0.10)
        va, vp = vpu_cost(64, f1).ratio_to(vpu_cost(64, ours))
        assert va == pytest.approx(1.20, rel=0.05)
        assert vp == pytest.approx(1.10, rel=0.05)

    def test_ordering_preserved(self):
        """Area ordering: ours < ARK < BTS < SHARP < F1 (Table II)."""
        areas = {d: NETWORK_COSTS[d](64).area_um2 for d in NETWORK_COSTS}
        assert (areas["Ours"] < areas["ARK"] < areas["BTS"]
                < areas["SHARP"] < areas["F1"])

    def test_ours_always_cheapest_in_power(self):
        powers = {d: NETWORK_COSTS[d](64).power_mw for d in NETWORK_COSTS}
        assert min(powers, key=powers.get) == "Ours"
