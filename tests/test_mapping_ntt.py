"""End-to-end tests: compiled NTT programs executed on the VPU versus the
golden transforms."""

import numpy as np
import pytest

from repro.core import VectorProcessingUnit
from repro.mapping import (
    NttMappingError,
    compile_intt,
    compile_ntt,
    compile_small_intt,
    compile_small_ntt,
    compile_tile_transpose,
    pack_for_ntt,
    pack_ntt_values,
    required_registers,
    unpack_ntt_result,
)
from repro.core.isa import Load, NetworkPass, Program, Store
from repro.ntt import naive_intt, naive_ntt
from repro.ntt.cooley_tukey import ntt_dif
from repro.ntt.tables import get_tables

Q = 998244353


def make_vpu(m, n):
    return VectorProcessingUnit(
        m=m, q=Q,
        regfile_entries=required_registers(m),
        memory_rows=max(16, 2 * n // m),
    )


def rand(n, seed):
    return np.random.default_rng(seed).integers(0, Q, n, dtype=np.uint64)


class TestTileTranspose:
    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_transpose_correct(self, m):
        vpu = make_vpu(m, m * m)
        tile = rand(m * m, m).reshape(m, m)
        for r in range(m):
            vpu.regfile.data[2 + r] = tile[r]
        prog = compile_tile_transpose(m, 2, 2 + m)
        vpu.execute(prog)
        got = np.stack([vpu.regfile.data[2 + m + r] for r in range(m)])
        np.testing.assert_array_equal(got, tile.T)

    def test_pass_count(self):
        """Each element traverses the network exactly twice: 2m passes."""
        prog = compile_tile_transpose(8, 2, 10)
        assert len(prog) == 16
        assert all(isinstance(i, NetworkPass) for i in prog)

    def test_window_overlap_rejected(self):
        with pytest.raises(ValueError):
            compile_tile_transpose(8, 2, 5)


class TestSmallNtt:
    @pytest.mark.parametrize("m", [4, 8, 16, 64])
    def test_forward_matches_dif(self, m):
        t = get_tables(m, Q)
        vpu = make_vpu(m, m)
        x = rand(m, m + 1)
        vpu.regfile.data[0] = x
        prog = Program(n=m)  # table roots: psi of order 2m, omega = psi^2
        compile_small_ntt(m, 2, prog)
        vpu.execute(prog)
        expected = ntt_dif([int(v) for v in x], t)
        assert [int(v) for v in vpu.regfile.data[0]] == expected

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_roundtrip(self, m):
        vpu = make_vpu(m, m)
        x = rand(m, m + 2)
        vpu.regfile.data[0] = x
        prog = Program(n=m)
        compile_small_ntt(m, 2, prog)
        compile_small_intt(m, -2, prog)
        vpu.execute(prog)
        np.testing.assert_array_equal(vpu.regfile.data[0], x)

    def test_cycle_structure(self):
        """log2(m) fused stages: one cycle each (network + butterfly)."""
        prog = Program(n=64)
        compile_small_ntt(64, 2, prog)
        assert len(prog) == 6


class TestFullNtt:
    @pytest.mark.parametrize("m,n", [(4, 16), (4, 64), (8, 64), (8, 512),
                                     (16, 256), (64, 4096)])
    def test_forward_matches_naive(self, m, n):
        vpu = make_vpu(m, n)
        x = rand(n, n)
        vpu.memory.data[:n // m] = pack_for_ntt(x, m)
        prog = compile_ntt(n, m)
        vpu.execute(prog)
        got = unpack_ntt_result(vpu.memory, n, m)
        t = get_tables(n, Q)
        if n <= 512:
            expected = naive_ntt([int(v) for v in x], t.omega, Q)
        else:
            from repro.ntt import vec_ntt_dif
            out = vec_ntt_dif(x, t)
            expected = np.empty_like(out)
            expected[t.bitrev] = out
            expected = [int(v) for v in expected]
        assert [int(v) for v in got] == expected

    @pytest.mark.parametrize("m,n", [(4, 16), (4, 64), (8, 512), (16, 256)])
    def test_inverse_roundtrip(self, m, n):
        vpu = make_vpu(m, n)
        x = rand(n, n + 5)
        vpu.memory.data[:n // m] = pack_for_ntt(x, m)
        vpu.execute(compile_ntt(n, m))
        vpu.execute(compile_intt(n, m))
        got = vpu.memory.data[:n // m]
        np.testing.assert_array_equal(got, pack_for_ntt(x, m))

    @pytest.mark.parametrize("m,n", [(4, 64), (8, 64)])
    def test_inverse_from_packed_values(self, m, n):
        """compile_intt consumes the documented layout, not just whatever
        compile_ntt leaves behind."""
        vpu = make_vpu(m, n)
        x = rand(n, n + 7)
        t = get_tables(n, Q)
        values = np.array(naive_ntt([int(v) for v in x], t.omega, Q),
                          dtype=np.uint64)
        vpu.memory.data[:n // m] = pack_ntt_values(values, m)
        vpu.execute(compile_intt(n, m))
        np.testing.assert_array_equal(vpu.memory.data[:n // m],
                                      pack_for_ntt(x, m))

    def test_layout_roundtrip_utils(self):
        x = rand(64, 3)
        t = get_tables(64, Q)
        values = np.array(naive_ntt([int(v) for v in x], t.omega, Q),
                          dtype=np.uint64)
        # pack/unpack are mutually inverse on the value layout.
        packed = pack_ntt_values(values, 8)

        class FakeMem:
            data = packed
        got = unpack_ntt_result(FakeMem, 64, 8)
        np.testing.assert_array_equal(got, values)

    @pytest.mark.parametrize("m,n", [(8, 16), (8, 32), (16, 64), (64, 1024),
                                     (16, 512), (8, 128)])
    def test_ragged_sizes_forward(self, m, n):
        """Ragged N (not a power of m): packed layout + grouped CG."""
        vpu = make_vpu(m, n)
        x = rand(n, n + 11)
        vpu.memory.data[:n // m] = pack_for_ntt(x, m)
        vpu.execute(compile_ntt(n, m))
        got = unpack_ntt_result(vpu.memory, n, m)
        t = get_tables(n, Q)
        from repro.ntt import vec_ntt_dif

        expected = np.empty(n, dtype=np.uint64)
        expected[t.bitrev] = vec_ntt_dif(x, t)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("m,n", [(8, 32), (64, 1024), (16, 512)])
    def test_ragged_roundtrip(self, m, n):
        vpu = make_vpu(m, n)
        x = rand(n, n + 13)
        vpu.memory.data[:n // m] = pack_for_ntt(x, m)
        vpu.execute(compile_ntt(n, m))
        vpu.execute(compile_intt(n, m))
        np.testing.assert_array_equal(vpu.memory.data[:n // m],
                                      pack_for_ntt(x, m))

    def test_invalid_sizes_rejected(self):
        with pytest.raises(NttMappingError):
            compile_ntt(64, 6)   # m not a power of two
        with pytest.raises(NttMappingError):
            compile_ntt(48, 16)  # N not a power of two
        with pytest.raises(NttMappingError):
            compile_ntt(8, 16)   # N below the lane count

    def test_utilization_accounting(self):
        """The executed program's resource stats feed Table III: compute
        utilization must fall in the paper's 70-90% band for 2D sizes."""
        m, n = 16, 256
        vpu = make_vpu(m, n)
        vpu.memory.data[:n // m] = pack_for_ntt(rand(n, 1), m)
        stats = vpu.run_fresh(compile_ntt(n, m))
        # Exclude loads/stores (overlapped with compute by the streaming
        # SRAM in real hardware).
        active = stats.cycles - stats.loads - stats.stores
        busy = stats.multiplier_busy
        assert 0.7 < busy / active < 1.0
        assert stats.network_passes > 0
