"""End-to-end tests for the automorphism mapping (paper §IV-B)."""

import numpy as np
import pytest

from repro.automorphism import AffinePermutation, galois_eval_permutation, paper_sigma
from repro.core import VectorProcessingUnit
from repro.core.isa import NetworkPass
from repro.mapping import (
    compile_automorphism,
    compile_reduction,
    pack_for_ntt,
    unpack_columns,
)
from repro.perf import automorphism_cycle_model

Q = 998244353


def run_automorphism(perm, m, x):
    cols = perm.n // m
    vpu = VectorProcessingUnit(m=m, q=Q, memory_rows=max(4, 2 * cols))
    vpu.memory.data[:cols] = pack_for_ntt(x, m)
    prog = compile_automorphism(perm, m)
    stats = vpu.run_fresh(prog)
    out = unpack_columns(vpu.memory, perm.n, m, base_row=cols)
    return out, stats, prog


class TestAutomorphismMapping:
    @pytest.mark.parametrize("m", [8, 64])
    @pytest.mark.parametrize("r", [0, 1, 2, 7])
    def test_paper_sigma(self, m, r):
        n = 16 * m
        x = np.random.default_rng(r).integers(0, Q, n, dtype=np.uint64)
        perm = paper_sigma(n, r)
        out, _, _ = run_automorphism(perm, m, x)
        np.testing.assert_array_equal(out, perm.apply(x))

    @pytest.mark.parametrize("m", [8, 16])
    def test_all_multipliers(self, m):
        n = 4 * m
        x = np.arange(n, dtype=np.uint64)
        for k in range(1, min(n, 64), 2):
            perm = AffinePermutation(n, k)
            out, _, _ = run_automorphism(perm, m, x)
            np.testing.assert_array_equal(out, perm.apply(x))

    def test_affine_with_offset(self):
        """The exact CKKS evaluation-domain Galois permutation (affine
        with nonzero offset) maps the same way."""
        n, m = 512, 8
        x = np.random.default_rng(3).integers(0, Q, n, dtype=np.uint64)
        perm = galois_eval_permutation(n, 5)
        out, _, _ = run_automorphism(perm, m, x)
        np.testing.assert_array_equal(out, perm.apply(x))

    def test_single_network_traversal_per_element(self):
        """THE §V-C claim: N/m passes total — one traversal per element."""
        n, m = 1024, 64
        perm = paper_sigma(n, 5)
        x = np.arange(n, dtype=np.uint64)
        out, stats, prog = run_automorphism(perm, m, x)
        np.testing.assert_array_equal(out, perm.apply(x))
        assert stats.network_passes == n // m
        assert automorphism_cycle_model(n, m).total_cycles == n // m

    def test_n_equals_m(self):
        m = 16
        perm = paper_sigma(m, 3)
        x = np.arange(m, dtype=np.uint64)
        out, stats, _ = run_automorphism(perm, m, x)
        np.testing.assert_array_equal(out, perm.apply(x))
        assert stats.network_passes == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            compile_automorphism(paper_sigma(100 * 3, 1), 8)  # not pow2 n
        with pytest.raises(ValueError):
            compile_automorphism(paper_sigma(64, 1), 64, src_base=0, dst_base=0)


class TestReduction:
    @pytest.mark.parametrize("m", [4, 8, 64])
    def test_all_lanes_hold_sum(self, m):
        vpu = VectorProcessingUnit(m=m, q=Q)
        x = np.random.default_rng(m).integers(0, Q, m, dtype=np.uint64)
        vpu.regfile.data[0] = x
        vpu.execute(compile_reduction(m))
        expected = int(x.astype(object).sum() % Q)
        assert all(int(v) == expected for v in vpu.regfile.data[0])

    def test_logarithmic_cost(self):
        prog = compile_reduction(64)
        assert len(prog) == 12  # 6 shifts + 6 adds

    def test_validation(self):
        with pytest.raises(ValueError):
            compile_reduction(6)
