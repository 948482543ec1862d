"""Unit tests for repro.arith.modular."""

import pytest

from repro.arith import modular


class TestScalarOps:
    def test_bad_modulus_rejected(self):
        for q in [1, 0, -5]:
            with pytest.raises(ValueError):
                modular.mod_inverse(1, q)

    def test_inverse(self):
        q = 12289
        for a in [1, 2, 3, 12288, 6144, -1, q + 2]:
            inv = modular.mod_inverse(a, q)
            assert (a * inv) % q == 1 and 0 <= inv < q

    def test_inverse_noninvertible(self):
        with pytest.raises(ValueError):
            modular.mod_inverse(6, 12)
