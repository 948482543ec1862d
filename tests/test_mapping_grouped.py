"""Tests for the grouped-CG mode: multiple short NTTs per register row
(paper §IV-A: "the CG network also can be divided into multiple
independent groups to allow multiple smaller NTTs to execute in
parallel")."""

import numpy as np
import pytest

from repro.core import NttStage, Program, VectorProcessingUnit
from repro.mapping import (
    NttMappingError,
    compile_grouped_intt,
    compile_grouped_ntt,
)
from repro.ntt import ntt_dif
from repro.ntt.tables import get_tables

Q = 998244353


def run(m, c, x, forward=True, also_inverse=False):
    vpu = VectorProcessingUnit(m=m, q=Q)
    prog = Program(n=c)  # table roots: psi of order 2c, omega = psi^2
    if forward:
        compile_grouped_ntt(m, c, 2, prog)
    if also_inverse or not forward:
        compile_grouped_intt(m, c, -2, prog)
    vpu.regfile.data[0] = np.asarray(x, dtype=np.uint64)
    stats = vpu.run_fresh(prog)
    return vpu.regfile.data[0], stats, prog


class TestGroupedNtt:
    @pytest.mark.parametrize("m,c", [(16, 4), (16, 8), (64, 16), (64, 64)])
    def test_each_group_transforms_independently(self, m, c):
        rng = np.random.default_rng(m + c)
        x = rng.integers(0, Q, m, dtype=np.uint64)
        out, _, _ = run(m, c, x)
        t = get_tables(c, Q)
        for g in range(m // c):
            sub = [int(v) for v in x[g * c:(g + 1) * c]]
            expected = ntt_dif(sub, t)
            assert [int(v) for v in out[g * c:(g + 1) * c]] == expected

    @pytest.mark.parametrize("m,c", [(16, 4), (64, 16)])
    def test_roundtrip(self, m, c):
        rng = np.random.default_rng(2 * m + c)
        x = rng.integers(0, Q, m, dtype=np.uint64)
        out, _, _ = run(m, c, x, forward=True, also_inverse=True)
        np.testing.assert_array_equal(out, x)

    def test_cycle_count_is_log_c(self):
        """Short dims cost log2(c) stages — the full-width lanes stay
        busy with m/c transforms in flight, the §IV-A utilization point."""
        prog = Program(n=8)
        compile_grouped_ntt(64, 8, 2, prog)
        assert len(prog) == 3
        assert all(isinstance(i, NttStage) and i.group_size == 8 for i in prog)

    def test_full_width_group_matches_small_ntt(self):
        """c == m degenerates to the ordinary length-m NTT."""
        from repro.mapping import compile_small_ntt

        m = 16
        x = np.random.default_rng(0).integers(0, Q, m, dtype=np.uint64)
        grouped, _, _ = run(m, m, x)
        vpu = VectorProcessingUnit(m=m, q=Q)
        prog = Program(n=m)
        compile_small_ntt(m, 2, prog)
        vpu.regfile.data[0] = x
        vpu.execute(prog)
        np.testing.assert_array_equal(grouped, vpu.regfile.data[0])

    def test_group_of_two(self):
        """c = 2: each pair of adjacent lanes is one 2-point NTT (a bare
        butterfly; the CG group routing is the identity)."""
        m, c = 16, 2
        x = np.random.default_rng(4).integers(0, Q, m, dtype=np.uint64)
        out, _, prog = run(m, c, x)
        assert len(prog) == 1
        for g in range(m // 2):
            u, v = int(x[2 * g]), int(x[2 * g + 1])
            assert int(out[2 * g]) == (u + v) % Q
            assert int(out[2 * g + 1]) == (u - v) % Q

    def test_validation(self):
        prog = Program()
        with pytest.raises(NttMappingError):
            compile_grouped_ntt(16, 3, 1, prog)
        with pytest.raises(NttMappingError):
            compile_grouped_ntt(16, 32, 1, prog)
        with pytest.raises(NttMappingError):
            compile_grouped_ntt(16, 1, 1, prog)
        with pytest.raises(NttMappingError):
            compile_grouped_intt(16, 3, 1, prog)
