"""The RLWE core (`repro.fhe.rlwe`) and the integer slot encoder the
exact schemes share: encoder properties, the one Galois fold, the
pinned keygen -> encrypt -> multiply (-> rotate) digests that make
bit-identity a check instead of a promise, and the structural rules
that keep the scheme modules thin and the benchmark's keyswitch spans
visible."""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

import repro.fhe
from repro.fhe.backend import NumpyBackend, VpuBackend, use_backend
from repro.fhe.bfv import BfvCiphertext, BfvContext
from repro.fhe.bgv import BgvCiphertext, BgvContext, BgvParams
from repro.fhe.ckks import Ciphertext, CkksContext
from repro.fhe.encoding import BatchEncoder
from repro.fhe.params import CkksParams, toy_params
from repro.fhe.rlwe import CIPHERTEXT_TYPES, RlweCiphertext, RlweContext
from repro.fhe.serialize import ciphertext_digest
from repro.kernels import CompiledBackend

T = 65537
PINNED = BgvParams(n=64, levels=2, plaintext_modulus=257, prime_bits=28)
FHE_DIR = Path(repro.fhe.__file__).parent


class TestBatchEncoder:
    @pytest.fixture(scope="class")
    def ctx(self):
        return BgvContext(BgvParams(n=256, levels=3, plaintext_modulus=T,
                                    prime_bits=28), seed=7)

    def test_slot_order_is_permutation(self, ctx):
        assert sorted(ctx.encoder.slot_order) == list(range(256))

    @pytest.mark.parametrize("n,t", [(8, 17), (64, 257), (256, T)])
    def test_roundtrip(self, n, t):
        encoder = BatchEncoder(n, t)
        v = np.random.default_rng(n).integers(0, t, n)
        coeffs = encoder.encode(v)
        assert np.abs(coeffs).max() <= t // 2  # centered representatives
        np.testing.assert_array_equal(encoder.decode(coeffs), v)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            BatchEncoder(64, 257).encode(np.arange(63))

    def test_bgv_and_bfv_encode_the_same_coefficients(self):
        """One encoder under both exact schemes: the same slots give the
        same centered coefficients, which is what BGV's plaintext
        polynomial carries (BFV scales them by Delta)."""
        bgv, bfv = BgvContext(PINNED, seed=1), BfvContext(PINNED, seed=1)
        v = np.arange(64) * 3 % 257
        coeffs = bgv.encoder.encode(v)
        np.testing.assert_array_equal(bfv.encoder.encode(v), coeffs)
        np.testing.assert_array_equal(
            bgv.encode(v).centered_lift().astype(np.int64), coeffs)


class TestSharedCore:
    def test_each_scheme_is_a_thin_layer_over_the_core(self):
        for ctx_cls, ct_cls in ((CkksContext, Ciphertext),
                                (BgvContext, BgvCiphertext),
                                (BfvContext, BfvCiphertext)):
            assert issubclass(ctx_cls, RlweContext)
            assert issubclass(ct_cls, RlweCiphertext)
            assert ctx_cls.scheme == ct_cls.scheme
            assert CIPHERTEXT_TYPES[ct_cls.scheme] is ct_cls
            for owned in ("_keygen", "_encrypt", "phase", "_relin_fold",
                          "_galois_folds", "reseed", "add", "sub"):
                assert owned not in vars(ctx_cls)

    def test_hoisted_rotation_is_the_same_galois_fold(self):
        ctx = CkksContext(toy_params(), seed=7)
        ctx.generate_galois_keys([1, 5])
        ct = ctx.encrypt(np.linspace(-1, 1, ctx.params.slots))
        for r in (1, 5):
            [hoisted] = ctx.rotate_hoisted(ct, [r])
            assert ciphertext_digest(hoisted) == ciphertext_digest(
                ctx.rotate(ct, r))

    def test_reseed_restarts_the_encryption_stream(self):
        ctx = CkksContext(toy_params(), seed=7)
        x = np.zeros(ctx.params.slots)
        ctx.reseed((11, 4))
        first = ciphertext_digest(ctx.encrypt(x))
        assert ciphertext_digest(ctx.encrypt(x)) != first
        ctx.reseed((11, 4))
        assert ciphertext_digest(ctx.encrypt(x)) == first


class TestOneGaloisFold:
    """Every rotation entry takes ``_galois_folds``: one element permutes
    ``c1`` before its decomposition, several permute the shared digits
    (the compiled slot gathers either way).  Both schedules, and every
    backend, give the same bits."""

    BACKENDS = [NumpyBackend, CompiledBackend, lambda: VpuBackend(m=16)]

    @staticmethod
    def _digests(run, make):
        with use_backend(make()):
            return [ciphertext_digest(ct) for ct in run()]

    @pytest.mark.parametrize("make", BACKENDS, ids=["numpy", "compiled", "vpu"])
    def test_ckks_conjugate(self, make):
        ctx = CkksContext(toy_params(), seed=7)
        ctx.generate_galois_keys([1], conjugation=True)
        ct = ctx.encrypt(np.linspace(-1, 1, ctx.params.slots))
        k = 2 * ctx.params.n - 1

        def run():
            return [ctx.conjugate(ct), ctx.rotate_hoisted(ct, [1])[0],
                    ctx.rotate(ct, 1), *ctx._galois_folds(ct, [k, 5])]

        conjugated, hoisted, plain, *folds = self._digests(run, make)
        assert conjugated == folds[0] and plain == hoisted == folds[1]
        assert self._digests(run, NumpyBackend) == [conjugated, hoisted,
                                                    plain, *folds]

    @pytest.mark.parametrize("make", BACKENDS, ids=["numpy", "compiled", "vpu"])
    def test_bgv_rotate(self, make):
        ctx = BgvContext(PINNED, seed=7)
        ctx.generate_galois_keys([1, 2])
        ct = ctx.encrypt(np.arange(64))

        def run():
            return [ctx.rotate(ct, 1),
                    *ctx._galois_folds(ct, [ctx._galois_element(1),
                                            ctx._galois_element(2)])]

        plain, *folds = self._digests(run, make)
        assert plain == folds[0]
        assert self._digests(run, NumpyBackend) == [plain, *folds]


class TestPinnedDigests:
    """Recorded at the commit before the schemes moved onto the core
    (seed 7, Galois key for rotation 1).  Keys and ciphertexts must
    stay bit-identical: the order of RNG draws (secret, a, e, relin
    key; then u, e0, e1 per encryption) is a fixed point."""

    def test_ckks_multiply_rotate(self):
        ctx = CkksContext(toy_params(), seed=7)
        ctx.generate_galois_keys([1])
        x = np.arange(ctx.params.slots) / ctx.params.slots
        out = ctx.rotate(ctx.multiply(ctx.encrypt(x), ctx.encrypt(x)), 1)
        assert ciphertext_digest(out) == (
            "f6aac1f115506fa428cf235c642859dbaf20f0e3ff5511bafc04e4005ffd6d94")

    def test_bgv_multiply_rotate(self):
        ctx = BgvContext(PINNED, seed=7)
        ctx.generate_galois_keys([1])
        v = np.arange(64)
        out = ctx.rotate(ctx.multiply(ctx.encrypt(v), ctx.encrypt(v)), 1)
        assert ciphertext_digest(out) == (
            "c936d67c5919ceebf9325b027538a8e43ddafbec69df46e0eb368f40c7e45bfe")

    def test_bfv_multiply(self):
        ctx = BfvContext(PINNED, seed=7)
        v = np.arange(64)
        out = ctx.multiply(ctx.encrypt(v), ctx.encrypt(v))
        assert ciphertext_digest(out) == (
            "bdbc5f8dff2347e5335bf8ce8277ebc09375904d9c4dfb79fbc3378647c691f8")


def _sha256(values: np.ndarray, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(
        np.asarray(values, dtype=dtype)).tobytes()).hexdigest()


class TestPinnedDecryptions:
    """Recorded before the centered lift moved onto word-sized Garner
    digits (seed 7): the CKKS ``decrypt`` float64 bytes and the BGV /
    BFV decoded slots, at two shapes each.  The lift is exact and the
    int64 -> float64 conversion rounds as the Python-int one does, so
    every decryption is bit-identical."""

    CKKS = {
        "toy": (toy_params(),
                "dadc7fd11825cb43e3067f3319d09c431b6b2d67250d1191abf1cccdf7116491",
                "857add1df26e0857595a9ca35f596882b668a17688ee77028dee07b1e74f76ae"),
        "six-limb": (CkksParams(n=512, levels=6, scale_bits=27, prime_bits=29),
                     "3d5228676344e696de1ac376bfef8bcaf2d52a6f606bcdc187fb2861e161cd6a",
                     "5fc694e70d19d5f891d1e82e0d3347a4bd2d979044fdbc83b997d094b7caea54"),
    }
    EXACT = {
        "pinned": (PINNED,
                   "c27fb52122825197639df02a93f769be29711a3d96bf953c043593ee15549889",
                   "f59d5cd2620bae36ff64be467b2fa793c463b6a411bc2540866f9830296c9dc1"),
        "three-limb": (BgvParams(n=256, levels=3, plaintext_modulus=T,
                                 prime_bits=28),
                       "dd7b8c95b02e4a3f96eb2f5e49f0ac738dcb47d382790182b9e83f4a98cf82bc",
                       "6bf525f14e0808ae1d0498f853acdf01eca29a7d9f6f491e3bee27ae0c5ff9eb"),
    }

    @pytest.mark.parametrize("shape", CKKS)
    def test_ckks_decrypt(self, shape):
        params, fresh, product = self.CKKS[shape]
        ctx = CkksContext(params, seed=7)
        ctx.generate_galois_keys([1])
        x = np.arange(params.slots) / params.slots
        a = ctx.encrypt(x)
        out = ctx.rotate(ctx.multiply(a, ctx.encrypt(x)), 1)
        assert _sha256(ctx.decrypt(a), np.complex128) == fresh
        assert _sha256(ctx.decrypt(out), np.complex128) == product

    @pytest.mark.parametrize("shape", EXACT)
    def test_bgv_and_bfv_decrypt(self, shape):
        params, bgv_digest, bfv_digest = self.EXACT[shape]
        v = np.arange(params.n)
        bgv = BgvContext(params, seed=7)
        bgv.generate_galois_keys([1])
        out = bgv.rotate(bgv.multiply(bgv.encrypt(v), bgv.encrypt(v)), 1)
        assert _sha256(bgv.decrypt(out), np.int64) == bgv_digest
        bfv = BfvContext(params, seed=7)
        out = bfv.multiply(bfv.encrypt(v), bfv.encrypt(v))
        assert _sha256(bfv.decrypt(out), np.int64) == bfv_digest


def _imported_names(path: Path) -> set[str]:
    """Every name a module binds with ``from ... import name``."""
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


class TestStructure:
    @pytest.mark.parametrize("module", ["ckks.py", "bgv.py", "bfv.py"])
    def test_scheme_modules_do_not_reimplement_the_core(self, module):
        source = (FHE_DIR / module).read_text()
        for owned_by_core in ("repro.fhe.sampling", "sample_",
                              "generate_keyswitch_key", "_build_slot_order"):
            assert owned_by_core not in source

    def test_core_reaches_rebound_keyswitch_functions_through_the_module(self):
        """`benchmarks/e2e/spans.instrument` rebinds these five on the
        `repro.fhe.keyswitch` module only; a by-name import in the core
        would keep calling the unwrapped function and the benchmark's
        apply_keyswitch span count (a divisor in `run.py`) would drop."""
        rebound = {"apply_keyswitch", "decompose_digits",
                   "accumulate_keyswitch", "mod_down", "rescale"}
        assert not rebound & _imported_names(FHE_DIR / "rlwe.py")

    def test_core_sits_below_the_program_layer(self):
        source = (FHE_DIR / "rlwe.py").read_text()
        for above in ("repro.analysis", "repro.recover", "repro.serve"):
            assert f"from {above}" not in source
            assert f"import {above}" not in source
