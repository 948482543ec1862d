"""The limb-batched backend contract.

Three guarantees pin the batched kernel engine:

* an L-row batch agrees limb-for-limb with L one-row batches on the
  golden per-row path, on both backends;
* the whole FHE pipeline is bit-identical between ``NumpyBackend`` and
  ``VpuBackend`` when every kernel goes through the batched API;
* the VPU program cache compiles each ``(kernel, n, m, q)`` once and
  replays it for every subsequent limb.
"""

import numpy as np
import pytest

from repro.arith.primes import find_ntt_primes
from repro.fhe.backend import NumpyBackend, VpuBackend, use_backend
from repro.fhe.ckks import CkksContext
from repro.fhe.params import CkksParams
from repro.fhe.polynomial import RnsPoly

N = 256
PRIMES = tuple(find_ntt_primes(2 * N, 28, 4))


GOLDEN = NumpyBackend(mode="golden")


def residue_stack(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, q, N, dtype=np.uint64) for q in PRIMES])


@pytest.fixture(scope="module")
def vpu_backend():
    return VpuBackend(m=16)


class TestBatchedMatchesPerLimb:
    """One dispatch over the (L, n) matrix === L golden L = 1 batches."""

    @pytest.mark.parametrize("backend_name", ["numpy", "vpu"])
    def test_forward_ntt_batch(self, backend_name, vpu_backend):
        backend = vpu_backend if backend_name == "vpu" else NumpyBackend()
        x = residue_stack(1)
        batched = backend.forward_ntt_batch(x, PRIMES)
        for i, q in enumerate(PRIMES):
            np.testing.assert_array_equal(
                batched[i], GOLDEN.forward_ntt_batch(x[i:i + 1], (q,))[0])

    @pytest.mark.parametrize("backend_name", ["numpy", "vpu"])
    def test_inverse_ntt_batch(self, backend_name, vpu_backend):
        backend = vpu_backend if backend_name == "vpu" else NumpyBackend()
        x = residue_stack(2)
        batched = backend.inverse_ntt_batch(x, PRIMES)
        for i, q in enumerate(PRIMES):
            np.testing.assert_array_equal(
                batched[i], GOLDEN.inverse_ntt_batch(x[i:i + 1], (q,))[0])

    @pytest.mark.parametrize("backend_name", ["numpy", "vpu"])
    @pytest.mark.parametrize("galois_k", [5, 125, 2 * N - 1])
    def test_automorphism_eval_batch(self, backend_name, galois_k,
                                     vpu_backend):
        backend = vpu_backend if backend_name == "vpu" else NumpyBackend()
        x = residue_stack(3)
        batched = backend.automorphism_eval_batch(x, galois_k, PRIMES)
        for i, q in enumerate(PRIMES):
            np.testing.assert_array_equal(
                batched[i],
                GOLDEN.automorphism_eval_batch(x[i:i + 1], galois_k, (q,))[0])

    def test_batch_roundtrip(self):
        backend = NumpyBackend()
        x = residue_stack(4)
        np.testing.assert_array_equal(
            backend.inverse_ntt_batch(backend.forward_ntt_batch(x, PRIMES),
                                      PRIMES), x)


class TestRnsPolyVectorizedOps:
    """Broadcast limb ops === the retired per-limb Python loops."""

    def test_ring_ops_limbwise(self):
        a = RnsPoly(residue_stack(5), PRIMES, is_eval=True)
        b = RnsPoly(residue_stack(6), PRIMES, is_eval=True)
        for got, combine in [
            (a + b, lambda x, y, q: (x + y) % q),
            (a - b, lambda x, y, q: (x + (q - y)) % q),
            (-a, lambda x, y, q: (q - x) % q),
            (a * b, lambda x, y, q: x * y % q),
            (a.mul_scalar(12345), lambda x, y, q: x * np.uint64(12345 % int(q)) % q),
        ]:
            for i, q in enumerate(PRIMES):
                qq = np.uint64(q)
                np.testing.assert_array_equal(
                    got.residues[i], combine(a.residues[i], b.residues[i], qq))

    def test_from_int_coeffs_native_dtype_fast_path(self):
        rng = np.random.default_rng(7)
        coeffs = rng.integers(-2**28, 2**28, N)
        fast = RnsPoly.from_int_coeffs(coeffs, PRIMES, to_eval=False)
        slow = RnsPoly.from_int_coeffs(coeffs.astype(object), PRIMES,
                                       to_eval=False)
        np.testing.assert_array_equal(fast.residues, slow.residues)

    def test_from_int_coeffs_bigint_fallback(self):
        huge = np.array([3**100, -(5**80), 0, 1] * (N // 4), dtype=object)
        poly = RnsPoly.from_int_coeffs(huge, PRIMES, to_eval=False)
        for i, q in enumerate(PRIMES):
            np.testing.assert_array_equal(
                poly.residues[i], np.array([int(v) % q for v in huge],
                                           dtype=np.uint64))


class TestVpuProgramCache:
    """Compiled programs are keyed on (kernel, n, m), bound per prime
    and replayed."""

    def test_repeated_ntt_workload_compiles_once(self):
        backend = VpuBackend(m=16)
        x = residue_stack(8)
        repeats = 6
        for _ in range(repeats):
            backend.forward_ntt_batch(x, PRIMES)
        assert backend.kernel_invocations == repeats * len(PRIMES)
        # One compile for the kernel shape, bound to every prime and
        # replayed for every limb dispatch.
        assert backend.program_compilations == 1
        (program,) = backend._programs.values()
        assert sorted(program.bound) == sorted(PRIMES)

    def test_automorphism_program_shared_across_limbs(self):
        backend = VpuBackend(m=16)
        x = residue_stack(9)
        backend.automorphism_eval_batch(x, 5, PRIMES)
        backend.automorphism_eval_batch(x, 5, PRIMES)
        # The permutation is modulus-independent: one program total.
        assert backend.program_compilations == 1
        assert backend.kernel_invocations == 2 * len(PRIMES)


class TestFullWorkloadBitEquality:
    """encrypt -> HMult -> relinearize -> rescale -> HRot -> decrypt,
    bit-identical between the numpy and VPU backends through the
    batched API."""

    def test_toy_pipeline(self):
        params = CkksParams(n=256, levels=2, scale_bits=26, prime_bits=28)
        rng = np.random.default_rng(0)
        z1 = rng.uniform(-1, 1, params.slots)
        z2 = rng.uniform(-1, 1, params.slots)

        def pipeline():
            ctx = CkksContext(params, seed=17)
            ctx.generate_galois_keys([2])
            ct = ctx.multiply(ctx.encrypt(z1), ctx.encrypt(z2))  # relin+rescale
            ct = ctx.rotate(ct, 2)
            return ct, ctx.decrypt(ct)

        ct_ref, dec_ref = pipeline()
        backend = VpuBackend(m=16)
        with use_backend(backend):
            ct_vpu, dec_vpu = pipeline()

        assert backend.kernel_invocations > 0
        for p_ref, p_vpu in zip(ct_ref.parts, ct_vpu.parts):
            np.testing.assert_array_equal(p_ref.residues, p_vpu.residues)
        np.testing.assert_array_equal(dec_ref, dec_vpu)
        np.testing.assert_allclose(dec_vpu, np.roll(z1 * z2, -2), atol=3e-3)
