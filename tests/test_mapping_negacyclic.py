"""Tests for the fully-on-VPU negacyclic NTT programs."""

import numpy as np
import pytest

from repro.core import VectorProcessingUnit
from repro.mapping import (
    pack_for_ntt,
    pack_ntt_values,
    required_registers,
    unpack_ntt_result,
)
from repro.mapping.ntt import compile_negacyclic_intt, compile_negacyclic_ntt
from repro.ntt import NegacyclicNtt

Q = 998244353


def make_vpu(m, n):
    return VectorProcessingUnit(m=m, q=Q,
                                regfile_entries=required_registers(m),
                                memory_rows=max(16, 2 * n // m))


class TestNegacyclicOnVpu:
    @pytest.mark.parametrize("m,n", [(8, 64), (8, 32), (16, 256), (16, 512)])
    def test_forward_matches_library(self, m, n):
        vpu = make_vpu(m, n)
        x = np.random.default_rng(n).integers(0, Q, n, dtype=np.uint64)
        vpu.memory.data[:n // m] = pack_for_ntt(x, m)
        vpu.execute(compile_negacyclic_ntt(n, m))
        got = unpack_ntt_result(vpu.memory, n, m)
        expected = NegacyclicNtt(n, Q).forward(x)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("m,n", [(8, 64), (16, 512)])
    def test_inverse_matches_library(self, m, n):
        vpu = make_vpu(m, n)
        values = np.random.default_rng(n + 1).integers(0, Q, n,
                                                       dtype=np.uint64)
        vpu.memory.data[:n // m] = pack_ntt_values(values, m)
        vpu.execute(compile_negacyclic_intt(n, m))
        got = vpu.memory.data[:n // m].T.reshape(-1)
        expected = NegacyclicNtt(n, Q).inverse(values)
        np.testing.assert_array_equal(got, expected)

    def test_roundtrip_on_vpu(self):
        m, n = 8, 128
        vpu = make_vpu(m, n)
        x = np.random.default_rng(2).integers(0, Q, n, dtype=np.uint64)
        vpu.memory.data[:n // m] = pack_for_ntt(x, m)
        vpu.execute(compile_negacyclic_ntt(n, m))
        mid = unpack_ntt_result(vpu.memory, n, m)
        vpu.memory.data[:n // m] = pack_ntt_values(mid, m)
        vpu.execute(compile_negacyclic_intt(n, m))
        np.testing.assert_array_equal(vpu.memory.data[:n // m].T.reshape(-1),
                                      x)

    def test_no_host_arithmetic_needed(self):
        """The psi folding appears as element-wise twiddle instructions
        in the program — the VPU's element-wise mode, not host work."""
        prog = compile_negacyclic_ntt(64, 8)
        from repro.core.isa import VMulTwiddle

        fold_passes = prog.count(VMulTwiddle)
        rows = 64 // 8
        assert fold_passes >= rows  # one fold per row (plus dim twiddles)
