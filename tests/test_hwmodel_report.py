"""Tests for the cost-breakdown rendering."""

import pytest

from repro.hwmodel import lane_cost, our_network_cost
from repro.hwmodel.report import (
    network_breakdown,
    render_breakdown,
    vpu_breakdown,
)


class TestNetworkBreakdown:
    def test_totals_match_cost_model(self):
        """Mux + lane-attach + control rows must sum to the network cost
        (the table row adds only the separately-reported SRAM table)."""
        lines = network_breakdown(64)
        core = [l for l in lines if "table" not in l.name]
        area = sum(l.area_um2 for l in core)
        power = sum(l.power_mw for l in core)
        net = our_network_cost(64)
        assert area == pytest.approx(net.area_um2)
        assert power == pytest.approx(net.power_mw)

    def test_shift_stages_dominate_muxes(self):
        lines = {l.name: l for l in network_breakdown(64)}
        assert (lines["shift stages"].area_um2
                > lines["CG stages (DIT/DIF)"].area_um2)
        assert lines["shift stages"].count == 6
        assert lines["CG stages (DIT/DIF)"].count == 2

    def test_m4_merges_cg(self):
        lines = {l.name: l for l in network_breakdown(4)}
        assert lines["CG stages (DIT/DIF)"].count == 1

    @pytest.mark.parametrize("breakdown", [network_breakdown, vpu_breakdown,
                                           our_network_cost])
    @pytest.mark.parametrize("m", [6, 1, 0])
    def test_lane_count_not_a_power_of_two_is_refused(self, breakdown, m):
        """A breakdown refuses exactly what the cost model refuses: there
        is no 6-lane network to split into CG and shift stages."""
        with pytest.raises(ValueError, match="power of two"):
            breakdown(m)


class TestVpuBreakdown:
    def test_multipliers_dominate(self):
        """Paper §V-B: the VPU is dominated by the arithmetic and the
        register files, not the network."""
        lines = {l.name: l for l in vpu_breakdown(64)}
        mult = lines["Barrett modular multipliers"].area_um2
        net = lines["inter-lane network (all stages)"].area_um2
        assert mult > 10 * net / 2.5  # multipliers far above the network
        total = sum(l.area_um2 for l in vpu_breakdown(64))
        assert net / total < 0.05  # network under 5% of the VPU

    def test_lane_components_sum(self):
        lines = {l.name: l for l in vpu_breakdown(64)}
        per_lane = (lines["Barrett modular multipliers"].area_um2
                    + lines["modular adders/subtractors"].area_um2
                    + lines["register files (2R1W)"].area_um2) / 64
        assert per_lane == pytest.approx(lane_cost().area_um2)


class TestRendering:
    def test_render_contains_rows_and_total(self):
        text = render_breakdown(network_breakdown(64), title="network m=64")
        assert "network m=64" in text
        assert "shift stages" in text
        assert "total" in text
        # Percentages present and formatted.
        assert "%" in text

    def test_render_without_title(self):
        text = render_breakdown(vpu_breakdown(16))
        assert text.startswith("component") or "component" in text
