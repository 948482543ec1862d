"""Tests for homomorphic linear transforms and polynomial evaluation —
the building blocks of CKKS bootstrapping (paper §II-A)."""

import numpy as np
import pytest

from repro.fhe.ckks import CkksContext
from repro.fhe.linear import (
    encrypted_matvec,
    encrypted_matvec_bsgs,
    matrix_diagonal,
    required_rotations,
)
from repro.fhe.params import CkksParams
from repro.fhe.polyeval import evaluate_horner, evaluate_power_basis

DIM = 8


@pytest.fixture(scope="module")
def ctx():
    context = CkksContext(
        CkksParams(n=256, levels=4, scale_bits=27, prime_bits=28), seed=13)
    rotations = sorted(set(required_rotations(DIM)
                           + required_rotations(DIM, bsgs=True)))
    context.generate_galois_keys(rotations)
    return context


def encrypt_tiled(ctx, x):
    return ctx.encrypt(np.tile(x, ctx.params.slots // len(x)))


class TestDiagonals:
    def test_diagonal_extraction(self):
        w = np.arange(16).reshape(4, 4)
        np.testing.assert_array_equal(matrix_diagonal(w, 0), [0, 5, 10, 15])
        np.testing.assert_array_equal(matrix_diagonal(w, 1), [1, 6, 11, 12])

    def test_required_rotations(self):
        assert required_rotations(8) == list(range(1, 8))
        bsgs = required_rotations(16, bsgs=True)
        assert len(bsgs) < 15  # fewer keys than the plain method
        assert all(r < 16 for r in bsgs)


class TestMatvec:
    def test_plain_method(self, ctx):
        rng = np.random.default_rng(0)
        w = rng.normal(0, 0.4, (DIM, DIM))
        x = rng.uniform(-1, 1, DIM)
        out = ctx.decrypt(encrypted_matvec(ctx, encrypt_tiled(ctx, x), w))
        np.testing.assert_allclose(out[:DIM].real, w @ x, atol=2e-3)

    def test_bsgs_method(self, ctx):
        rng = np.random.default_rng(1)
        w = rng.normal(0, 0.4, (DIM, DIM))
        x = rng.uniform(-1, 1, DIM)
        out = ctx.decrypt(encrypted_matvec_bsgs(ctx, encrypt_tiled(ctx, x), w))
        np.testing.assert_allclose(out[:DIM].real, w @ x, atol=2e-3)

    def test_methods_agree(self, ctx):
        rng = np.random.default_rng(2)
        w = rng.normal(0, 0.4, (DIM, DIM))
        x = rng.uniform(-1, 1, DIM)
        ct = encrypt_tiled(ctx, x)
        plain = ctx.decrypt(encrypted_matvec(ctx, ct, w))[:DIM]
        bsgs = ctx.decrypt(encrypted_matvec_bsgs(ctx, ct, w))[:DIM]
        np.testing.assert_allclose(plain, bsgs, atol=2e-3)

    def test_sparse_matrix_skips_diagonals(self, ctx):
        w = np.diag(np.full(DIM, 0.5))  # only diagonal 0
        x = np.random.default_rng(3).uniform(-1, 1, DIM)
        out = ctx.decrypt(encrypted_matvec(ctx, encrypt_tiled(ctx, x), w))
        np.testing.assert_allclose(out[:DIM].real, 0.5 * x, atol=1e-3)

    def test_identity(self, ctx):
        x = np.random.default_rng(4).uniform(-1, 1, DIM)
        out = ctx.decrypt(encrypted_matvec(ctx, encrypt_tiled(ctx, x),
                                           np.eye(DIM)))
        np.testing.assert_allclose(out[:DIM].real, x, atol=1e-3)

    def test_zero_matrix(self, ctx):
        x = np.random.default_rng(5).uniform(-1, 1, DIM)
        out = ctx.decrypt(encrypted_matvec(ctx, encrypt_tiled(ctx, x),
                                           np.zeros((DIM, DIM))))
        np.testing.assert_allclose(out[:DIM].real, 0, atol=1e-3)

    def test_non_square_rejected(self, ctx):
        with pytest.raises(ValueError):
            encrypted_matvec(ctx, encrypt_tiled(ctx, np.zeros(DIM)),
                             np.zeros((4, 8)))


def _dense(rng):
    return rng.normal(0, 0.4, (DIM, DIM))


def _banded(rng):
    """Diagonals {0, 1, DIM - 1}: the shape of the e2e ``pipeline``'s
    block-rotation matrix."""
    w = np.zeros((DIM, DIM))
    i = np.arange(DIM)
    for d in (0, 1, DIM - 1):
        w[i, (i + d) % DIM] = rng.normal(0, 0.4, DIM)
    return w


MATRICES = {"dense": _dense, "banded": _banded,
            "zero": lambda rng: np.zeros((DIM, DIM))}
#: Digit decompositions a matvec of each matrix performs on the phased
#: path, per method: one hoisted call over the input, plus — BSGS — one
#: plain rotation per giant step off the first.
DECOMPOSITIONS = {
    ("dense", encrypted_matvec): 1, ("dense", encrypted_matvec_bsgs): 1 + 3,
    ("banded", encrypted_matvec): 1, ("banded", encrypted_matvec_bsgs): 1 + 1,
    ("zero", encrypted_matvec): 0, ("zero", encrypted_matvec_bsgs): 0,
}


class TestMatvecHoisting:
    @pytest.mark.parametrize("method", [encrypted_matvec,
                                        encrypted_matvec_bsgs])
    @pytest.mark.parametrize("kind", MATRICES)
    def test_result_and_one_decomposition_per_input(self, ctx, kind, method,
                                                    monkeypatch):
        from repro.fhe import keyswitch
        from repro.fhe.backend import NumpyBackend, use_backend

        rng = np.random.default_rng(11)
        w = MATRICES[kind](rng)
        x = rng.uniform(-1, 1, DIM)
        ct = encrypt_tiled(ctx, x)
        inputs = []
        original = keyswitch.decompose_digits

        def counted(poly, params):
            inputs.append(poly)
            return original(poly, params)

        hoisted = []
        original_hoisted = CkksContext.rotate_hoisted

        def counted_hoisted(self, c, steps):
            before = len(inputs)
            out = original_hoisted(self, c, steps)
            hoisted.append((c is ct, list(steps), inputs[before:]))
            return out

        monkeypatch.setattr(keyswitch, "decompose_digits", counted)
        monkeypatch.setattr(CkksContext, "rotate_hoisted", counted_hoisted)
        with use_backend(NumpyBackend()):  # no fused slot: the phased path
            out = ctx.decrypt(method(ctx, ct, w))
        np.testing.assert_allclose(out[:DIM].real, w @ x, atol=2e-3)
        assert len(inputs) == DECOMPOSITIONS[kind, method]
        if not inputs:
            assert hoisted == []
            return
        # The matvec's own input is decomposed once, however many of its
        # rotations are read: several rotations decompose its c1 itself,
        # a single one decomposes c1's image under that rotation.
        (own, steps, (poly,)), = hoisted
        assert own
        moved = {ctx._galois_element(s) for s in steps} - {1}
        if len(moved) > 1:
            assert poly is ct.parts[1]
        else:
            k, = moved
            assert np.array_equal(poly.residues,
                                  ct.parts[1].automorphism(k).residues)

    def test_bsgs_rotates_only_the_baby_steps_a_diagonal_reads(self, ctx,
                                                               monkeypatch):
        """Diagonals {0, 1, 7} at baby = 2: baby step 1 (d = 1, 7) and
        giant step 6 — step 0 rotates nothing."""
        asked = []
        original = CkksContext.rotate_hoisted
        monkeypatch.setattr(
            CkksContext, "rotate_hoisted",
            lambda self, ct, steps: asked.append(list(steps))
            or original(self, ct, steps))
        rng = np.random.default_rng(12)
        w = _banded(rng)
        encrypted_matvec_bsgs(ctx, encrypt_tiled(ctx, rng.uniform(-1, 1, DIM)),
                              w)
        assert asked == [[0, 1]]
        w16 = np.zeros((16, 16))
        i = np.arange(16)
        for d in (0, 1, 15):
            w16[i, (i + d) % 16] = 1.0
        # The pipeline's matrix: baby steps 1 and 3 are read, 2 is not.
        assert required_rotations(16, bsgs=True, matrix=w16) == [1, 3, 12]
        assert required_rotations(16, bsgs=True) == [1, 2, 3, 4, 8, 12]
        assert required_rotations(DIM, matrix=w) == [1, 7]
        assert required_rotations(DIM, matrix=np.zeros((DIM, DIM))) == []

    def test_keys_for_the_matrix_alone_suffice(self):
        context = CkksContext(
            CkksParams(n=256, levels=4, scale_bits=27, prime_bits=28), seed=14)
        rng = np.random.default_rng(13)
        w = _banded(rng)
        x = rng.uniform(-1, 1, DIM)
        for bsgs, method in ((False, encrypted_matvec),
                             (True, encrypted_matvec_bsgs)):
            context.galois_keys.clear()
            context.generate_galois_keys(
                required_rotations(DIM, bsgs=bsgs, matrix=w))
            out = context.decrypt(method(context, encrypt_tiled(context, x), w))
            np.testing.assert_allclose(out[:DIM].real, w @ x, atol=2e-3)


class TestPolyEval:
    def setup_method(self):
        self.rng = np.random.default_rng(7)
        self.z = self.rng.uniform(-0.9, 0.9, 128)

    def fresh_ctx(self, levels):
        return CkksContext(CkksParams(n=256, levels=levels, scale_bits=27,
                                      prime_bits=28), seed=17)

    def check(self, evaluator, coeffs, levels, atol=2e-3):
        ctx = self.fresh_ctx(levels)
        out = ctx.decrypt(evaluator(ctx, ctx.encrypt(self.z), coeffs))
        expected = sum(c * self.z ** k for k, c in enumerate(coeffs))
        np.testing.assert_allclose(out.real, expected, atol=atol)

    def test_horner_linear(self):
        self.check(evaluate_horner, [0.3, 0.7], levels=3)

    def test_horner_quadratic(self):
        self.check(evaluate_horner, [0.5, -1.2, 0.7], levels=4)

    @pytest.mark.parametrize("coeffs", [
        [0.25, 0.5, -0.3, 0.8],                       # degree 3
        [0.3, -0.5, 0.2, 0.1, -0.25],                 # degree 4
    ])
    def test_power_basis_shallow(self, coeffs):
        self.check(evaluate_power_basis, coeffs, levels=4)

    def test_power_basis_degree_seven(self):
        """log-depth evaluation: degree 7 on a 5-level chain (Horner
        would need 7 levels)."""
        coeffs = [0.1, -0.2, 0.3, -0.15, 0.05, 0.21, -0.12, 0.08]
        self.check(evaluate_power_basis, coeffs, levels=5)

    def test_methods_agree(self):
        coeffs = [0.2, -0.4, 0.6]
        ctx = self.fresh_ctx(4)
        ct = ctx.encrypt(self.z)
        h = ctx.decrypt(evaluate_horner(ctx, ct, coeffs))
        p = ctx.decrypt(evaluate_power_basis(ctx, ct, coeffs))
        np.testing.assert_allclose(h, p, atol=3e-3)

    def test_sigmoid_approximation(self):
        """A realistic activation: degree-3 sigmoid approximation
        (the private-inference workload shape)."""
        coeffs = [0.5, 0.25, 0.0, -1.0 / 48.0]
        ctx = self.fresh_ctx(4)
        out = ctx.decrypt(evaluate_power_basis(ctx, ctx.encrypt(self.z),
                                               coeffs)).real
        sigmoid = 1 / (1 + np.exp(-self.z))
        assert np.abs(out - sigmoid).max() < 0.05  # approximation error

    def test_empty_coeffs_rejected(self):
        ctx = self.fresh_ctx(3)
        with pytest.raises(ValueError):
            evaluate_horner(ctx, ctx.encrypt(self.z), [])
        with pytest.raises(ValueError):
            evaluate_power_basis(ctx, ctx.encrypt(self.z), [])
