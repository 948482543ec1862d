"""Tests for the BGV scheme — exact integer FHE on the same substrate
(paper §II-A: BGV/BFV share the accelerator's computation patterns)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.bgv import BgvCiphertext, BgvContext, BgvParams

T = 65537


@pytest.fixture(scope="module")
def ctx():
    return BgvContext(BgvParams(n=256, levels=3, plaintext_modulus=T,
                                prime_bits=28), seed=7)


@pytest.fixture(scope="module")
def rot_ctx():
    context = BgvContext(BgvParams(n=256, levels=3, plaintext_modulus=T,
                                   prime_bits=28), seed=8)
    context.generate_galois_keys([1, 2, 16])
    return context


def rand_slots(n, seed):
    return np.random.default_rng(seed).integers(0, T, n).astype(np.int64)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BgvParams(plaintext_modulus=65536)  # not prime
        with pytest.raises(ValueError):
            BgvParams(n=65536, plaintext_modulus=65537)  # t != 1 mod 2n


class TestEncoding:
    def test_roundtrip(self, ctx):
        v = rand_slots(256, 0)
        poly = ctx.encode(v)
        coeff = poly.to_coeff()
        lifted = coeff.centered_limb(0)
        np.testing.assert_array_equal(ctx.decode(lifted), v % T)

    def test_encode_is_ring_homomorphism(self, ctx):
        """Slot-wise products equal plaintext-poly ring products."""
        v1, v2 = rand_slots(256, 1), rand_slots(256, 2)
        p1, p2 = ctx.encode(v1), ctx.encode(v2)
        prod = (p1 * p2).to_coeff()
        # Lift the product's coefficients centered and decode mod t.
        from repro.arith.modular import mod_inverse

        q_prod = 1
        for q in prod.primes:
            q_prod *= q
        total = np.zeros(256, dtype=object)
        for i, q in enumerate(prod.primes):
            q_hat = q_prod // q
            total = (total + prod.residues[i].astype(object)
                     * (q_hat * mod_inverse(q_hat, q) % q_prod)) % q_prod
        centered = np.where(total > q_prod // 2, total - q_prod, total)
        got = ctx.decode(centered)
        expected = (v1.astype(object) * v2) % T
        np.testing.assert_array_equal(got, expected.astype(np.int64))

    def test_wrong_size(self, ctx):
        with pytest.raises(ValueError):
            ctx.encode(np.zeros(100, dtype=np.int64))


class TestEncryptDecrypt:
    def test_roundtrip_exact(self, ctx):
        v = rand_slots(256, 3)
        np.testing.assert_array_equal(ctx.decrypt(ctx.encrypt(v)), v % T)

    def test_zero_and_max(self, ctx):
        for v in [np.zeros(256, dtype=np.int64),
                  np.full(256, T - 1, dtype=np.int64)]:
            np.testing.assert_array_equal(ctx.decrypt(ctx.encrypt(v)), v % T)


class TestHomomorphicOps:
    def test_add_exact(self, ctx):
        v1, v2 = rand_slots(256, 4), rand_slots(256, 5)
        out = ctx.decrypt(ctx.add(ctx.encrypt(v1), ctx.encrypt(v2)))
        np.testing.assert_array_equal(out, (v1 + v2) % T)

    def test_sub_exact(self, ctx):
        v1, v2 = rand_slots(256, 6), rand_slots(256, 7)
        out = ctx.decrypt(ctx.sub(ctx.encrypt(v1), ctx.encrypt(v2)))
        np.testing.assert_array_equal(out, (v1 - v2) % T)

    def test_add_plain(self, ctx):
        v1, v2 = rand_slots(256, 8), rand_slots(256, 9)
        out = ctx.decrypt(ctx.add_plain(ctx.encrypt(v1), v2))
        np.testing.assert_array_equal(out, (v1 + v2) % T)

    def test_multiply_plain(self, ctx):
        v1, v2 = rand_slots(256, 10), rand_slots(256, 11)
        out = ctx.decrypt(ctx.multiply_plain(ctx.encrypt(v1), v2))
        expected = (v1.astype(object) * v2) % T
        np.testing.assert_array_equal(out, expected.astype(np.int64))

    def test_multiply_exact(self, ctx):
        v1, v2 = rand_slots(256, 12), rand_slots(256, 13)
        ct = ctx.multiply(ctx.encrypt(v1), ctx.encrypt(v2))
        assert ct.level == 1  # modulus-switched
        expected = (v1.astype(object) * v2) % T
        np.testing.assert_array_equal(ctx.decrypt(ct),
                                      expected.astype(np.int64))

    def test_depth_two_exact(self, ctx):
        v1, v2 = rand_slots(256, 14), rand_slots(256, 15)
        c1 = ctx.multiply(ctx.encrypt(v1), ctx.encrypt(v2))
        c2 = ctx.multiply(ctx.encrypt(v1), ctx.encrypt(v2))
        out = ctx.decrypt(ctx.multiply(c1, c2))
        expected = ((v1.astype(object) * v2) ** 2) % T
        np.testing.assert_array_equal(out, expected.astype(np.int64))

    def test_factor_tracking(self, ctx):
        v = rand_slots(256, 16)
        ct = ctx.multiply(ctx.encrypt(v), ctx.encrypt(v))
        dropped = ctx.chain.primes[-1]
        assert ct.factor == dropped % T

    def test_factor_mismatch_rejected(self, ctx):
        v = rand_slots(256, 17)
        fresh = ctx.encrypt(v)
        switched = ctx.mod_switch(fresh)
        with pytest.raises(ValueError):
            ctx.add(fresh, switched)

    def test_mod_switch_preserves_plaintext(self, ctx):
        v = rand_slots(256, 18)
        ct = ctx.mod_switch(ctx.encrypt(v))
        assert ct.level == ctx.params.levels - 2
        np.testing.assert_array_equal(ctx.decrypt(ct), v % T)

    def test_mod_switch_at_bottom_rejected(self, ctx):
        v = rand_slots(256, 19)
        ct = ctx.mod_switch(ctx.mod_switch(ctx.encrypt(v)))
        with pytest.raises(ValueError):
            ctx.mod_switch(ct)


class TestRotation:
    @pytest.mark.parametrize("steps", [1, 2, 16])
    def test_rotation_rotates_both_orbits(self, rot_ctx, steps):
        v = rand_slots(256, 20 + steps)
        out = rot_ctx.decrypt(rot_ctx.rotate(rot_ctx.encrypt(v), steps))
        half = 128
        np.testing.assert_array_equal(out[:half], np.roll(v[:half] % T, -steps))
        np.testing.assert_array_equal(out[half:], np.roll(v[half:] % T, -steps))

    def test_rotation_zero(self, rot_ctx):
        v = rand_slots(256, 30)
        out = rot_ctx.decrypt(rot_ctx.rotate(rot_ctx.encrypt(v), 0))
        np.testing.assert_array_equal(out, v % T)

    def test_missing_key(self, rot_ctx):
        with pytest.raises(KeyError):
            rot_ctx.rotate(rot_ctx.encrypt(rand_slots(256, 31)), 7)


class TestVsCkks:
    def test_same_keyswitch_machinery(self, ctx):
        """BGV's relin key comes from the identical generator CKKS uses —
        the unified-substrate point of §II-A."""
        from repro.fhe.keyswitch import KeySwitchKey

        assert isinstance(ctx.relin_key, KeySwitchKey)
        assert ctx.relin_key.num_digits == ctx.params.levels

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_affine_circuit_property(self, seed):
        context = BgvContext(BgvParams(n=256, levels=2, plaintext_modulus=T,
                                       prime_bits=28), seed=3)
        rng = np.random.default_rng(seed)
        v = rng.integers(0, T, 256).astype(np.int64)
        w = rng.integers(0, T, 256).astype(np.int64)
        out = context.decrypt(
            context.add_plain(context.multiply_plain(context.encrypt(v), w), w))
        expected = ((v.astype(object) * w) + w) % T
        np.testing.assert_array_equal(out, expected.astype(np.int64))
