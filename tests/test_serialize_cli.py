"""Tests for ciphertext serialization and the CLI."""

import io

import numpy as np
import pytest

from repro.cli import main
from repro.fhe.ckks import CkksContext
from repro.fhe.params import toy_params
from repro.fhe.serialize import (
    ciphertext_size_bytes,
    load_ciphertext,
    poly_from_arrays,
    poly_to_arrays,
    save_ciphertext,
)


@pytest.fixture(scope="module")
def ctx():
    return CkksContext(toy_params(), seed=99)


class TestSerialization:
    def test_poly_roundtrip(self, ctx):
        z = np.random.default_rng(0).uniform(-1, 1, ctx.params.slots)
        poly, _ = ctx.encode(z)
        back = poly_from_arrays(poly_to_arrays(poly))
        np.testing.assert_array_equal(back.residues, poly.residues)
        assert back.primes == poly.primes
        assert back.is_eval == poly.is_eval

    def test_ciphertext_roundtrip_file(self, ctx, tmp_path):
        z = np.random.default_rng(1).uniform(-1, 1, ctx.params.slots)
        ct = ctx.encrypt(z)
        path = tmp_path / "ct.npz"
        save_ciphertext(ct, path)
        loaded = load_ciphertext(path)
        assert loaded.scale == ct.scale
        for a, b in zip(ct.parts, loaded.parts):
            np.testing.assert_array_equal(a.residues, b.residues)
        # Decryption of the round-tripped ciphertext still works.
        np.testing.assert_allclose(ctx.decrypt(loaded), z, atol=1e-3)

    def test_ciphertext_roundtrip_buffer(self, ctx):
        z = np.random.default_rng(2).uniform(-1, 1, ctx.params.slots)
        ct = ctx.encrypt(z)
        buffer = io.BytesIO()
        save_ciphertext(ct, buffer)
        buffer.seek(0)
        loaded = load_ciphertext(buffer)
        np.testing.assert_allclose(ctx.decrypt(loaded), z, atol=1e-3)

    def test_evaluated_ciphertext_roundtrip(self, ctx, tmp_path):
        """Serialization survives level/scale changes."""
        z = np.random.default_rng(3).uniform(-1, 1, ctx.params.slots)
        ct = ctx.multiply(ctx.encrypt(z), ctx.encrypt(z))
        path = tmp_path / "ct2.npz"
        save_ciphertext(ct, path)
        loaded = load_ciphertext(path)
        assert loaded.level == ct.level
        np.testing.assert_allclose(ctx.decrypt(loaded), z * z, atol=2e-3)

    def test_size_accounting(self, ctx):
        ct = ctx.encrypt(np.zeros(ctx.params.slots))
        expected = 2 * ctx.params.levels * ctx.params.n * 8
        assert ciphertext_size_bytes(ct) == expected

    def test_version_check(self, ctx, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, version=np.array([999]), num_parts=np.array([0]),
                 scale=np.array([1.0]))
        with pytest.raises(ValueError):
            load_ciphertext(path)


class TestCli:
    def test_table_commands(self, capsys):
        for cmd in ["table2", "table3", "table4"]:
            assert main([cmd]) == 0
            out = capsys.readouterr().out
            assert "Ours" in out or "lanes" in out or "2^" in out

    def test_verify_small(self, capsys):
        assert main(["verify", "--n", "256", "--m", "16"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "MISMATCH" not in out

    def test_chip(self, capsys):
        assert main(["chip", "--vpus", "4"]) == 0
        assert "mm^2" in capsys.readouterr().out

    def test_breakdown(self, capsys):
        assert main(["breakdown", "--m", "16"]) == 0
        out = capsys.readouterr().out
        assert "Barrett" in out and "shift stages" in out

    def test_motivation(self, capsys):
        assert main(["motivation"]) == 0
        assert "ratio" in capsys.readouterr().out

    def test_controls_dump(self, capsys):
        assert main(["controls", "--m", "8"]) == 0
        out = capsys.readouterr().out
        assert "k=  3" in out and "28 bits" in out
        assert main(["controls", "--m", "64", "--r", "2"]) == 0
        out = capsys.readouterr().out
        assert "k= 25" in out  # 5^2 mod 64

    def test_controls_words_route_correctly(self, capsys):
        """The dumped word for (m=8, k=3) must match affine_controls."""
        from repro.automorphism import affine_controls

        main(["controls", "--m", "8", "--k", "3"])
        out = capsys.readouterr().out
        word = out.splitlines()[1].split(":")[1].split()[0]
        c = affine_controls(8, 3)
        expected = "".join(
            "".join(str(b) for b in c.group_bits[bi])
            for bi in reversed(range(3)))
        assert word == expected

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestMultiSchemeSerialization:
    """BFV/BGV archives round-trip with the scheme tag, across levels."""

    @pytest.fixture(scope="class")
    def bgv_ctx(self):
        from repro.fhe.bgv import BgvContext, BgvParams
        return BgvContext(BgvParams(n=256, levels=3,
                                    plaintext_modulus=65537,
                                    prime_bits=30), seed=99)

    @pytest.fixture(scope="class")
    def bfv_ctx(self):
        from repro.fhe.bfv import BfvContext
        from repro.fhe.bgv import BgvParams
        return BfvContext(BgvParams(n=64, levels=2,
                                    plaintext_modulus=257), seed=99)

    def test_bgv_roundtrip(self, bgv_ctx, tmp_path):
        values = np.arange(bgv_ctx.params.n) % bgv_ctx.t
        ct = bgv_ctx.encrypt(values)
        path = tmp_path / "bgv.npz"
        save_ciphertext(ct, path)
        loaded = load_ciphertext(path)
        assert type(loaded).__name__ == "BgvCiphertext"
        np.testing.assert_array_equal(bgv_ctx.decrypt(loaded), values)

    def test_bgv_roundtrip_after_mod_switch(self, bgv_ctx, tmp_path):
        values = np.arange(bgv_ctx.params.n) % bgv_ctx.t
        ct = bgv_ctx.mod_switch(bgv_ctx.encrypt(values))
        path = tmp_path / "bgv_lower.npz"
        save_ciphertext(ct, path)
        loaded = load_ciphertext(path)
        assert loaded.level == ct.level
        np.testing.assert_array_equal(bgv_ctx.decrypt(loaded), values)

    def test_bfv_roundtrip(self, bfv_ctx, tmp_path):
        values = np.arange(bfv_ctx.params.n) % bfv_ctx.t
        ct = bfv_ctx.encrypt(values)
        path = tmp_path / "bfv.npz"
        save_ciphertext(ct, path)
        loaded = load_ciphertext(path)
        assert type(loaded).__name__ == "BfvCiphertext"
        np.testing.assert_array_equal(bfv_ctx.decrypt(loaded), values)

    def test_digests_distinguish_schemes(self, bgv_ctx, bfv_ctx):
        from repro.fhe.serialize import ciphertext_digest
        a = bgv_ctx.encrypt(np.zeros(bgv_ctx.params.n, dtype=np.int64))
        b = bfv_ctx.encrypt(np.zeros(bfv_ctx.params.n, dtype=np.int64))
        assert ciphertext_digest(a) != ciphertext_digest(b)


class TestSchemeTagRouting:
    """The archive's scheme comes from the class's declared tag."""

    def test_ciphertext_subclass_roundtrips_as_its_base_scheme(self, ctx):
        from repro.fhe.ckks import Ciphertext
        from repro.fhe.serialize import ciphertext_digest

        class TenantCiphertext(Ciphertext):
            pass

        plain = ctx.encrypt(np.linspace(-1, 1, ctx.params.slots))
        tagged = TenantCiphertext(plain.parts, plain.scale)
        assert ciphertext_digest(tagged) == ciphertext_digest(plain)
        buffer = io.BytesIO()
        save_ciphertext(tagged, buffer)
        buffer.seek(0)
        loaded = load_ciphertext(buffer)
        assert type(loaded) is Ciphertext
        assert ciphertext_digest(loaded) == ciphertext_digest(plain)

    def test_untagged_object_is_a_serialization_error(self, ctx):
        from repro.fhe.serialize import SerializationError, ciphertext_digest

        class Ciphertext:  # the CKKS class's name, but no tag
            def __init__(self, parts):
                self.parts, self.scale = parts, 1.0

        impostor = Ciphertext(ctx.encrypt(np.zeros(ctx.params.slots)).parts)
        with pytest.raises(SerializationError):
            ciphertext_digest(impostor)
        with pytest.raises(SerializationError):
            save_ciphertext(impostor, io.BytesIO())


class TestSerializationHardening:
    """Typed errors on truncated, corrupted, or mismatched archives."""

    def _saved(self, ctx, tmp_path):
        z = np.random.default_rng(4).uniform(-1, 1, ctx.params.slots)
        path = tmp_path / "ct.npz"
        save_ciphertext(ctx.encrypt(z), path)
        return path

    def test_truncated_archive_typed(self, ctx, tmp_path):
        from repro.fhe.serialize import SerializationError
        path = self._saved(ctx, tmp_path)
        path.write_bytes(path.read_bytes()[:60])
        with pytest.raises(SerializationError):
            load_ciphertext(path)

    def test_digest_mismatch_detected(self, ctx, tmp_path):
        from repro.fhe.serialize import SerializationError
        path = self._saved(ctx, tmp_path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        # Tamper with one residue word; keep the stored digest.
        arrays["part0_residues"] = arrays["part0_residues"].copy()
        arrays["part0_residues"][0, 0] ^= 1
        np.savez(path, **arrays)
        with pytest.raises(SerializationError, match="digest"):
            load_ciphertext(path)

    def test_missing_field_typed(self, ctx, tmp_path):
        from repro.fhe.serialize import SerializationError
        path = self._saved(ctx, tmp_path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files
                      if name != "part0_primes"}
        np.savez(path, **arrays)
        with pytest.raises(SerializationError):
            load_ciphertext(path)

    def test_residue_shape_mismatch_typed(self, ctx, tmp_path):
        from repro.fhe.serialize import SerializationError
        path = self._saved(ctx, tmp_path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        # One residue row too few for the primes tuple.
        arrays["part0_residues"] = arrays["part0_residues"][:-1]
        np.savez(path, **arrays)
        with pytest.raises(SerializationError):
            load_ciphertext(path)

    def test_not_a_zipfile_typed(self, tmp_path):
        from repro.fhe.serialize import SerializationError
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an archive")
        with pytest.raises(SerializationError):
            load_ciphertext(path)
