"""Tests for the mux-level inter-lane network model."""

import numpy as np
import pytest

from repro.automorphism import (
    AffinePermutation,
    affine_controls,
    control_table,
    control_table_size_bits,
    paper_sigma,
)
from repro.core import InterLaneNetwork, NetworkConfig
from repro.core.stages import CgStage, ShiftStage
from repro.ntt.constant_geometry import (
    dif_gather_permutation,
    dit_scatter_permutation,
)


class TestCgStage:
    @pytest.mark.parametrize("m", [4, 8, 64])
    def test_dif_matches_gather(self, m):
        stage = CgStage(m, "dif")
        x = np.arange(m)
        np.testing.assert_array_equal(stage.apply(x), x[dif_gather_permutation(m)])

    @pytest.mark.parametrize("m", [4, 8, 64])
    def test_dit_inverts_dif(self, m):
        dif = CgStage(m, "dif")
        dit = CgStage(m, "dit")
        x = np.arange(m)
        np.testing.assert_array_equal(dit.apply(dif.apply(x)), x)

    def test_inactive_is_identity(self):
        stage = CgStage(8, "dif")
        x = np.arange(8)
        np.testing.assert_array_equal(stage.apply(x, active=False), x)

    def test_grouped_mode(self):
        """§IV-A: a short last dimension splits the CG network into
        independent groups, each a small CG network."""
        m, g = 16, 4
        stage = CgStage(m, "dif")
        x = np.arange(m)
        out = stage.apply(x, group_size=g)
        small = dif_gather_permutation(g)
        for block in range(m // g):
            np.testing.assert_array_equal(
                out[block * g:(block + 1) * g], x[block * g:(block + 1) * g][small]
            )

    def test_grouped_validation(self):
        stage = CgStage(16, "dif")
        with pytest.raises(ValueError):
            stage.apply(np.arange(16), group_size=3)
        with pytest.raises(ValueError):
            stage.apply(np.arange(16), group_size=32)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            CgStage(8, "foo")


class TestShiftStage:
    def test_uniform_shift(self):
        stage = ShiftStage(8, 2)
        x = np.arange(8)
        out = stage.forward(x, stage.selects_from_group_bits((1, 1)))
        np.testing.assert_array_equal(out, np.roll(x, 2))

    def test_partial_groups(self):
        """Independent group signals: shift only the odd-lane cycle."""
        stage = ShiftStage(8, 2)
        x = np.arange(8)
        out = stage.forward(x, stage.selects_from_group_bits((0, 1)))
        np.testing.assert_array_equal(out[0::2], x[0::2])
        np.testing.assert_array_equal(out[1::2], np.roll(x[1::2], 1))

    def test_control_signal_count(self):
        """§III-B: distances m/2, m/4, ..., 1 have m/2, m/4, ..., 1
        signals."""
        assert ShiftStage(8, 4).control_signal_count == 4
        assert ShiftStage(8, 2).control_signal_count == 2
        assert ShiftStage(8, 1).control_signal_count == 1

    def test_non_bijective_selects_rejected(self):
        stage = ShiftStage(4, 2)
        with pytest.raises(ValueError):
            stage.forward(np.arange(4), np.array([True, False, False, False]))

    def test_bad_distance(self):
        for d in [0, 3, 8]:
            with pytest.raises(ValueError):
                ShiftStage(8, d)


class TestInterLaneNetwork:
    @pytest.mark.parametrize("m", [4, 8, 16, 32, 64, 128, 256])
    def test_stage_and_control_counts(self, m):
        """The counts the cost model prices: one stage per distinct CG
        wiring plus log2 m shifts; the CG bits plus the paper's m - 1
        shift-control bits; a (m/2)(m-1)-bit control table."""
        net = InterLaneNetwork(m)
        wirings = {tuple(net.cg_dit.remote_source),
                   tuple(net.cg_dif.remote_source)}
        assert len(net.cg_stages) == len(wirings)
        assert net.stage_count == len(wirings) + m.bit_length() - 1
        assert net.control_bit_count == len(wirings) + m - 1
        table = control_table(m)
        assert (sum(c.total_bits for c in table.values())
                == control_table_size_bits(m) == (m // 2) * (m - 1))

    def test_m4_merges_cg(self):
        net = InterLaneNetwork(4)
        assert net.merged_cg
        assert net.stage_count == 1 + 2

    def test_identity_config(self):
        net = InterLaneNetwork(16)
        x = np.arange(16)
        np.testing.assert_array_equal(net.traverse(x, NetworkConfig()), x)

    def test_cg_dif_pass(self):
        net = InterLaneNetwork(8)
        x = np.arange(8)
        out = net.traverse(x, NetworkConfig(cg="dif"))
        np.testing.assert_array_equal(out, x[dif_gather_permutation(8)])

    def test_cg_dit_pass(self):
        net = InterLaneNetwork(8)
        x = np.arange(8)
        out = net.traverse(x, NetworkConfig(cg="dit"))
        np.testing.assert_array_equal(out, x[dit_scatter_permutation(8)])

    @pytest.mark.parametrize("m", [8, 64])
    def test_automorphism_single_pass(self, m):
        """The headline: any automorphism in exactly one traversal."""
        net = InterLaneNetwork(m)
        x = np.random.default_rng(m).integers(0, 1000, m)
        for k in range(1, m, 2):
            perm = AffinePermutation(m, k)
            config = NetworkConfig(shift=affine_controls(m, k))
            before = net.passes
            np.testing.assert_array_equal(net.traverse(x, config), perm.apply(x))
            assert net.passes == before + 1

    def test_cg_and_shift_compose(self):
        """A pass may activate the CG stage and shifts together."""
        m = 8
        net = InterLaneNetwork(m)
        x = np.arange(m)
        config = NetworkConfig(cg="dif", shift=affine_controls(m, 1, 3))
        out = net.traverse(x, config)
        np.testing.assert_array_equal(out, np.roll(x[dif_gather_permutation(m)], 3))

    def test_rows_traverse_one_pass_each(self):
        """Rows traverse one pass each, and a fault-free pass is one
        gather by the learned route — how the lock-step replay moves
        every row of a wave at once."""
        net = InterLaneNetwork(8)
        rows = np.arange(24).reshape(3, 8)
        sigma = paper_sigma(8, 1)
        config = NetworkConfig(shift=affine_controls(8, sigma.multiplier))
        gathered = rows[:, net.route(config)]
        for i in range(3):
            np.testing.assert_array_equal(net.traverse(rows[i], config),
                                          sigma.apply(rows[i]))
            np.testing.assert_array_equal(gathered[i], sigma.apply(rows[i]))
        assert net.passes == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            InterLaneNetwork(2)
        with pytest.raises(ValueError):
            InterLaneNetwork(48)
        net = InterLaneNetwork(8)
        with pytest.raises(ValueError):
            net.traverse(np.arange(4), NetworkConfig())
        with pytest.raises(ValueError):
            NetworkConfig(cg="fft")
        with pytest.raises(ValueError):
            NetworkConfig(cg_group_size=4)
        with pytest.raises(ValueError):
            net.traverse(np.arange(8), NetworkConfig(shift=affine_controls(16, 3)))
