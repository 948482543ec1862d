"""Cross-module property tests: randomized end-to-end invariants that tie
the layers together."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automorphism import AffinePermutation, affine_controls
from repro.core import NetworkConfig, VectorProcessingUnit
from repro.mapping import (
    compile_automorphism,
    compile_intt,
    compile_ntt,
    pack_for_ntt,
    required_registers,
    unpack_columns,
    unpack_ntt_result,
)
from repro.ntt import vec_ntt_dif
from repro.ntt.tables import get_tables

Q = 998244353


class TestVpuNttProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from([(4, 16), (4, 64), (8, 64), (8, 512), (16, 256)]),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_vpu_ntt_matches_reference(self, shape, seed):
        m, n = shape
        vpu = VectorProcessingUnit(m=m, q=Q,
                                   regfile_entries=required_registers(m),
                                   memory_rows=max(16, 2 * n // m))
        x = np.random.default_rng(seed).integers(0, Q, n, dtype=np.uint64)
        vpu.memory.data[:n // m] = pack_for_ntt(x, m)
        vpu.execute(compile_ntt(n, m))
        got = unpack_ntt_result(vpu.memory, n, m)
        t = get_tables(n, Q)
        expected = np.empty(n, dtype=np.uint64)
        expected[t.bitrev] = vec_ntt_dif(x, t)
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_vpu_roundtrip(self, seed):
        m, n = 8, 64
        vpu = VectorProcessingUnit(m=m, q=Q,
                                   regfile_entries=required_registers(m),
                                   memory_rows=2 * n // m)
        x = np.random.default_rng(seed).integers(0, Q, n, dtype=np.uint64)
        vpu.memory.data[:n // m] = pack_for_ntt(x, m)
        vpu.execute(compile_ntt(n, m))
        vpu.execute(compile_intt(n, m))
        np.testing.assert_array_equal(vpu.memory.data[:n // m],
                                      pack_for_ntt(x, m))


class TestVpuAutomorphismProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([(8, 64), (16, 128), (64, 1024)]),
        st.integers(min_value=0, max_value=2**20),
        st.integers(min_value=0, max_value=2**20),
    )
    def test_any_affine_permutation(self, shape, k_raw, s):
        m, n = shape
        k = (2 * k_raw + 1) % n
        perm = AffinePermutation(n, k, s % n)
        vpu = VectorProcessingUnit(m=m, q=Q, memory_rows=2 * n // m)
        x = np.arange(n, dtype=np.uint64)
        vpu.memory.data[:n // m] = pack_for_ntt(x, m)
        stats = vpu.run_fresh(compile_automorphism(perm, m))
        out = unpack_columns(vpu.memory, n, m, base_row=n // m)
        np.testing.assert_array_equal(out, perm.apply(x))
        assert stats.network_passes == n // m

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16),
           st.integers(min_value=0, max_value=63))
    def test_network_inverse_roundtrip(self, k_raw, s):
        """Routing a vector through sigma then sigma^{-1} controls is the
        identity — two passes that cancel."""
        m = 64
        from repro.core import InterLaneNetwork

        k = (2 * k_raw + 1) % m
        perm = AffinePermutation(m, k, s % m)
        inv = perm.inverse()
        net = InterLaneNetwork(m)
        x = np.arange(m)
        mid = net.traverse(x, NetworkConfig(
            shift=affine_controls(m, perm.multiplier, perm.offset)))
        back = net.traverse(mid, NetworkConfig(
            shift=affine_controls(m, inv.multiplier, inv.offset)))
        np.testing.assert_array_equal(back, x)


class TestCkksPipelineProperty:
    @pytest.fixture(scope="class")
    def ctx(self):
        from repro.fhe.ckks import CkksContext
        from repro.fhe.params import toy_params

        context = CkksContext(toy_params(), seed=101)
        context.generate_galois_keys([1, 2])
        return context

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31),
           st.sampled_from(["add", "mult", "rot", "conj_free"]))
    def test_random_op_pipelines(self, ctx, seed, op):
        rng = np.random.default_rng(seed)
        z1 = rng.uniform(-1, 1, ctx.params.slots)
        z2 = rng.uniform(-1, 1, ctx.params.slots)
        ct1, ct2 = ctx.encrypt(z1), ctx.encrypt(z2)
        if op == "add":
            got = ctx.decrypt(ctx.add(ct1, ct2))
            expected = z1 + z2
        elif op == "mult":
            got = ctx.decrypt(ctx.multiply(ct1, ct2))
            expected = z1 * z2
        elif op == "rot":
            got = ctx.decrypt(ctx.rotate(ctx.add(ct1, ct2), 2))
            expected = np.roll(z1 + z2, -2)
        else:  # a free op chain: negate twice
            got = ctx.decrypt(ctx.negate(ctx.negate(ct1)))
            expected = z1
        np.testing.assert_allclose(got.real, expected, atol=5e-3)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_linearity_of_encryption(self, ctx, seed):
        """E(a) + E(b) - E(a+b) decrypts to ~0."""
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, ctx.params.slots)
        b = rng.uniform(-1, 1, ctx.params.slots)
        resid = ctx.sub(ctx.add(ctx.encrypt(a), ctx.encrypt(b)),
                        ctx.encrypt(a + b))
        np.testing.assert_allclose(ctx.decrypt(resid).real, 0, atol=5e-3)
