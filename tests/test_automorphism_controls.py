"""Tests for shift-network control generation — the single-pass theorem.

Every control word is routed by the executor's own mux model,
:meth:`InterLaneNetwork.traverse`: each shift stage checks that its
selects form a bijection, so a word that routes is one collision-free
pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automorphism import (
    AffinePermutation,
    RoutingConflictError,
    ShiftControls,
    affine_controls,
    control_table,
    control_table_size_bits,
    paper_sigma,
    route_distance_map,
    uniform_shift_controls,
)
from repro.core import InterLaneNetwork, NetworkConfig


def routed(controls, net=None):
    """The lane indices after one traversal steered by ``controls``."""
    net = net or InterLaneNetwork(controls.m)
    return net.traverse(np.arange(controls.m), NetworkConfig(shift=controls))


class TestControlStructure:
    @pytest.mark.parametrize("m", [2, 4, 8, 64, 256])
    def test_total_bits_is_m_minus_1(self, m):
        c = affine_controls(m, 3 % m if (3 % m) % 2 else 1, 0)
        assert c.total_bits == m - 1

    def test_shift_stages_descend(self):
        stages = InterLaneNetwork(64).shift_stages
        assert [s.distance for s in stages] == [32, 16, 8, 4, 2, 1]

    def test_group_counts(self):
        c = affine_controls(8, 3)
        assert [len(bits) for bits in c.group_bits] == [1, 2, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            ShiftControls(6, ((0,),))
        with pytest.raises(ValueError):
            ShiftControls(8, ((0,), (0, 0)))  # missing a stage
        with pytest.raises(ValueError):
            ShiftControls(4, ((0, 0), (0,)))  # wrong group count
        with pytest.raises(ValueError):
            affine_controls(8, 2)

    def test_group_bits_expand_to_mux_selects(self):
        c = affine_controls(8, 3)
        for stage in InterLaneNetwork(8).shift_stages:
            d = stage.distance
            bits = c.group_bits[d.bit_length() - 1]
            sel = stage.selects_from_group_bits(bits)
            for j in range(8):
                assert sel[j] == bits[j % d]

    def test_table_size(self):
        """Paper §IV-B: m=64 needs (m/2)(m-1) = 2016 bits ~ 2 kbit."""
        assert control_table_size_bits(64) == 2016
        assert control_table_size_bits(8) == 28

    def test_control_table_covers_odd_multipliers(self):
        table = control_table(16)
        assert set(table) == {1, 3, 5, 7, 9, 11, 13, 15}
        for c in table.values():
            assert c.total_bits == 15


class TestSinglePassRouting:
    @pytest.mark.parametrize("m", [4, 8, 16, 32, 64, 128, 256])
    def test_all_automorphisms_route_exhaustively(self, m):
        """THE paper claim: every automorphism (odd multiplier) traverses
        the shift network in exactly one pass — every word of the
        pre-generated table, on the network the VPU executes."""
        net = InterLaneNetwork(m)
        x = np.arange(m)
        table = control_table(m)
        assert sorted(table) == list(range(1, m, 2))
        for k, controls in table.items():
            before = net.passes
            np.testing.assert_array_equal(routed(controls, net),
                                          AffinePermutation(m, k, 0).apply(x))
            assert net.passes == before + 1

    @pytest.mark.parametrize("m", [4, 8, 16, 32, 64, 128])
    def test_affine_with_offsets_route(self, m):
        """Generalization used by Eq. 2 merging: automorphism + shift."""
        net = InterLaneNetwork(m)
        x = np.arange(m)
        offsets = {0, 1, m // 2, *range(0, m, max(1, m // 8))}
        for k in range(1, m, 2):
            for s in sorted(offsets):
                perm = AffinePermutation(m, k, s)
                np.testing.assert_array_equal(
                    routed(affine_controls(m, k, s), net), perm.apply(x))

    def test_uniform_shift(self):
        m = 16
        net = InterLaneNetwork(m)
        x = np.arange(m)
        for amount in range(m):
            out = routed(uniform_shift_controls(m, amount), net)
            np.testing.assert_array_equal(out, np.roll(x, amount))

    def test_paper_sigma_routes(self):
        """The paper's own sigma (Eq. 1) routes from its multiplier and
        offset."""
        perm = paper_sigma(64, 2)
        c = affine_controls(perm.n, perm.multiplier, perm.offset)
        np.testing.assert_array_equal(routed(c), perm.apply(np.arange(64)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=0, max_value=2**16),
           st.integers(min_value=0, max_value=2**16))
    def test_affine_routing_property(self, log_m, k_raw, s):
        m = 1 << log_m
        k = (2 * k_raw + 1) % m
        perm = AffinePermutation(m, k, s % m)
        out = routed(affine_controls(m, k, s % m))
        np.testing.assert_array_equal(out, perm.apply(np.arange(m)))


class TestGenericRouter:
    def test_affine_maps_always_route(self):
        m = 32
        for k in range(1, m, 2):
            perm = AffinePermutation(m, k, 3)
            c = route_distance_map(m, perm.shift_distances())
            np.testing.assert_array_equal(routed(c), perm.apply(np.arange(m)))

    def test_router_matches_closed_form(self):
        m = 64
        for k in [3, 5, 25, 63]:
            perm = AffinePermutation(m, k, 0)
            c = route_distance_map(m, perm.shift_distances())
            assert c.group_bits == affine_controls(m, k).group_bits
            np.testing.assert_array_equal(routed(c), perm.apply(np.arange(m)))

    def test_irregular_map_rejected(self):
        """Fig. 3b's irregular shifts (0,1,3,0 on a 4-element column)
        cannot route in one pass — the reason the mapping layer inserts a
        CG pass first."""
        with pytest.raises(RoutingConflictError):
            route_distance_map(4, np.array([0, 1, 3, 0]))

    def test_non_bijective_map_rejected(self):
        # Everyone shifts onto lane of neighbor: distances all 1 is fine
        # (pure shift), but distances [1,0,0,0] collide.
        with pytest.raises(RoutingConflictError):
            route_distance_map(4, np.array([1, 0, 0, 0]))

    def test_length_check(self):
        with pytest.raises(ValueError):
            route_distance_map(8, np.zeros(4, dtype=np.int64))


class TestAgainstRecursiveDecomposition:
    """The controls and the recursive decomposition agree: merging the
    recursion's strided shifts produces exactly the distances the router
    consumes, and both realize the same permutation."""

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_agreement(self, m):
        from repro.automorphism import merge_shifts, recursive_shift_decomposition

        net = InterLaneNetwork(m)
        x = np.arange(m)
        for k in range(1, m, 2):
            perm = AffinePermutation(m, k, 0)
            merged = merge_shifts(recursive_shift_decomposition(perm), m)
            via_router = routed(route_distance_map(m, merged), net)
            via_closed_form = routed(affine_controls(m, k), net)
            np.testing.assert_array_equal(via_router, via_closed_form)
            np.testing.assert_array_equal(via_router, perm.apply(x))
