"""Integration: the CKKS stack executing its NTT and automorphism kernels
on the behavioral VPU model, bit-identical to the numpy backend."""

import numpy as np
import pytest

from repro.fhe.backend import NumpyBackend, VpuBackend, get_backend, use_backend
from repro.fhe.ckks import CkksContext
from repro.fhe.params import CkksParams

Q = 998244353
GOLDEN = NumpyBackend(mode="golden")


def row(rng, n):
    """One random polynomial row, as the L = 1 batch."""
    return rng.integers(0, Q, (1, n), dtype=np.uint64)


@pytest.fixture(scope="module")
def vpu_backend():
    return VpuBackend(m=16)


class TestKernelEquivalence:
    """Every backend kernel must agree with numpy bit-for-bit."""

    @pytest.mark.parametrize("n", [256, 512, 4096])  # 512: ragged at m=16
    def test_forward_ntt(self, vpu_backend, n):
        x = row(np.random.default_rng(n), n)
        np.testing.assert_array_equal(
            vpu_backend.forward_ntt_batch(x, (Q,)),
            GOLDEN.forward_ntt_batch(x, (Q,)),
        )

    @pytest.mark.parametrize("n", [256, 512, 4096])
    def test_inverse_ntt(self, vpu_backend, n):
        x = row(np.random.default_rng(n + 1), n)
        np.testing.assert_array_equal(
            vpu_backend.inverse_ntt_batch(x, (Q,)),
            GOLDEN.inverse_ntt_batch(x, (Q,)),
        )

    def test_ntt_roundtrip_on_vpu(self, vpu_backend):
        x = row(np.random.default_rng(5), 256)
        np.testing.assert_array_equal(
            vpu_backend.inverse_ntt_batch(
                vpu_backend.forward_ntt_batch(x, (Q,)), (Q,)), x
        )

    @pytest.mark.parametrize("k", [5, 25, 511])
    def test_automorphism(self, vpu_backend, k):
        x = row(np.random.default_rng(k), 256)
        np.testing.assert_array_equal(
            vpu_backend.automorphism_eval_batch(x, k, (Q,)),
            GOLDEN.automorphism_eval_batch(x, k, (Q,)),
        )

    def test_invocation_counter(self, vpu_backend):
        before = vpu_backend.kernel_invocations
        vpu_backend.forward_ntt_batch(np.zeros((1, 256), dtype=np.uint64),
                                      (Q,))
        assert vpu_backend.kernel_invocations == before + 1


class TestBackendSwitching:
    def test_default_follows_env(self):
        # The import-time default is REPRO_BACKEND (numpy when unset) —
        # CI runs the whole suite under each selectable backend.
        import os

        expected = (os.environ.get("REPRO_BACKEND", "numpy").strip().lower()
                    or "numpy")
        assert get_backend().name == expected

    def test_use_backend_restores(self, vpu_backend):
        default = get_backend().name
        with use_backend(vpu_backend):
            assert get_backend().name == "vpu"
        assert get_backend().name == default


class TestCkksOnVpu:
    """A full homomorphic pipeline where every NTT and automorphism runs
    through the mux-level VPU model."""

    def test_encrypted_pipeline_matches_numpy(self):
        params = CkksParams(n=256, levels=2, scale_bits=26, prime_bits=28)
        rng = np.random.default_rng(0)
        z1 = rng.uniform(-1, 1, params.slots)
        z2 = rng.uniform(-1, 1, params.slots)

        # numpy reference run
        ctx = CkksContext(params, seed=11)
        ctx.generate_galois_keys([1])
        ct = ctx.multiply(ctx.encrypt(z1), ctx.encrypt(z2))
        ct = ctx.rotate(ct, 1)
        reference = ctx.decrypt(ct)

        # identical run with all kernels on the VPU
        backend = VpuBackend(m=16)
        with use_backend(backend):
            ctx2 = CkksContext(params, seed=11)
            ctx2.generate_galois_keys([1])
            ct2 = ctx2.multiply(ctx2.encrypt(z1), ctx2.encrypt(z2))
            ct2 = ctx2.rotate(ct2, 1)
            # Bit-identical ciphertext polynomials...
            for p_ref, p_vpu in zip(ct.parts, ct2.parts):
                np.testing.assert_array_equal(p_ref.residues, p_vpu.residues)
            on_vpu = ctx2.decrypt(ct2)

        assert backend.kernel_invocations > 0
        np.testing.assert_array_equal(reference, on_vpu)
        np.testing.assert_allclose(on_vpu, np.roll(z1 * z2, -1), atol=3e-3)
