"""Tests for the packed (ragged-dimension) transpose and group-local
shift routing — the reproduction's layout finding (docs/theory.md §3)."""

import numpy as np
import pytest

from repro.core import NetworkConfig, Program, VectorProcessingUnit
from repro.core.network import InterLaneNetwork
from repro.mapping.transpose import (
    compile_packed_transpose,
    group_shift_controls,
)

Q = 998244353


class TestGroupShiftControls:
    @pytest.mark.parametrize("m,c", [(8, 2), (8, 4), (64, 16), (64, 2)])
    def test_rotates_each_group(self, m, c):
        net = InterLaneNetwork(m)
        x = np.arange(m)
        for amount in range(c):
            out = net.traverse(x, NetworkConfig(
                shift=group_shift_controls(m, c, amount)))
            for g in range(m // c):
                np.testing.assert_array_equal(
                    out[g * c:(g + 1) * c],
                    np.roll(x[g * c:(g + 1) * c], amount))

    def test_single_pass(self):
        """Group-local shifts route in ONE traversal — the affine theorem
        modulo the group size."""
        net = InterLaneNetwork(64)
        before = net.passes
        net.traverse(np.arange(64), NetworkConfig(
            shift=group_shift_controls(64, 8, 5)))
        assert net.passes == before + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            group_shift_controls(16, 3, 1)
        with pytest.raises(ValueError):
            group_shift_controls(16, 32, 1)


class TestPackedTranspose:
    @pytest.mark.parametrize("m,c", [(8, 2), (8, 4), (16, 4), (64, 16)])
    def test_per_group_square_transpose(self, m, c):
        """out[r][g*c + w] == in[w][g*c + r] for every lane group g."""
        vpu = VectorProcessingUnit(m=m, q=Q, regfile_entries=2 * m + 2)
        tile = np.random.default_rng(m + c).integers(
            0, Q, (c, m)).astype(np.uint64)
        for r in range(c):
            vpu.regfile.data[2 + r] = tile[r]
        vpu.execute(compile_packed_transpose(m, c, 2, 2 + c))
        out = np.stack([vpu.regfile.data[2 + c + r] for r in range(c)])
        for g in range(m // c):
            block_in = tile[:, g * c:(g + 1) * c]
            block_out = out[:, g * c:(g + 1) * c]
            np.testing.assert_array_equal(block_out, block_in.T)

    @pytest.mark.parametrize("m,c", [(8, 4), (64, 8)])
    def test_involution(self, m, c):
        """Applying the packed transpose twice restores the tile."""
        vpu = VectorProcessingUnit(m=m, q=Q, regfile_entries=2 * m + 2)
        tile = np.random.default_rng(1).integers(0, Q, (c, m)).astype(np.uint64)
        for r in range(c):
            vpu.regfile.data[2 + r] = tile[r]
        vpu.execute(compile_packed_transpose(m, c, 2, 2 + c))
        # Move the result back into the source window and transpose again.
        for r in range(c):
            vpu.regfile.data[2 + r] = vpu.regfile.data[2 + c + r]
        vpu.execute(compile_packed_transpose(m, c, 2, 2 + c))
        out = np.stack([vpu.regfile.data[2 + c + r] for r in range(c)])
        np.testing.assert_array_equal(out, tile)

    def test_pass_count(self):
        """Two network traversals per element — the same cost the square
        transpose pays; no CG assist with this layout."""
        prog = compile_packed_transpose(64, 16, 2, 18)
        assert len(prog) == 2 * 16
        for instr in prog:
            assert instr.config.cg is None  # shift stages only

    def test_validation(self):
        with pytest.raises(ValueError):
            compile_packed_transpose(16, 16, 0, 20)  # c must be < m
        with pytest.raises(ValueError):
            compile_packed_transpose(16, 3, 0, 20)
        with pytest.raises(ValueError):
            compile_packed_transpose(16, 4, 0, 2)  # overlapping windows
