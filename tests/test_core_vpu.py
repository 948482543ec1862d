"""Tests for the register file, ISA and VPU executor."""

import numpy as np
import pytest

from repro.automorphism import affine_controls
from repro.core import (
    Butterfly,
    Load,
    NetworkConfig,
    NetworkPass,
    Program,
    RegisterFile,
    Store,
    VAdd,
    VMul,
    VMulScalar,
    VMulTwiddle,
    VSub,
    VectorProcessingUnit,
)
from repro.core.vpu import VectorMemory, bind_table
from repro.mapping import pack_for_ntt, unpack_columns
from repro.ntt.tables import get_tables

Q = 998244353


def fresh_vpu(m=8, q=Q, **kw):
    return VectorProcessingUnit(m=m, q=q, **kw)


def hand_bound(instructions, twiddles=(), scalars=(), q=Q):
    """A program whose constant table is bound to ``q`` by hand."""
    program = Program(instructions)
    bind_table(program, q, twiddles=list(twiddles), scalars=list(scalars))
    return program


class TestRegisterFile:
    def test_read_write(self):
        """Register ``r`` is row ``r`` of ``data``, the array the
        executor's ports read and write; each access is counted."""
        vpu = fresh_vpu(m=4)
        vpu.memory.data[5] = [1, 2, 3, 4]
        vpu.execute(Program([Load(3, 5), Store(3, 6)]))
        rf = vpu.regfile
        assert rf.data.shape == (64, 4) and rf.data.dtype == np.uint64
        np.testing.assert_array_equal(rf.data[3], [1, 2, 3, 4])
        np.testing.assert_array_equal(vpu.memory.data[6], [1, 2, 3, 4])
        assert (rf.reads, rf.writes) == (1, 1)

    def test_bounds(self):
        rf = RegisterFile(4, 8)
        rf.check_range(7)
        with pytest.raises(IndexError):
            rf.check_range(8)
        with pytest.raises(IndexError):
            rf.check_range(-1)

    def test_shape_check(self):
        for m, entries in [(0, 8), (4, 0)]:
            with pytest.raises(ValueError):
                RegisterFile(m, entries)

    def test_port_budget(self):
        rf = RegisterFile(4, 8)
        rf.check_ports([1, 2], [3])  # fine
        rf.check_ports([1, 1], [3])  # same reg twice is one port
        with pytest.raises(ValueError):
            rf.check_ports([1, 2, 3], [0])
        with pytest.raises(ValueError):
            rf.check_ports([1], [2, 3])


class TestElementwiseOps:
    def test_add_sub_mul(self):
        vpu = fresh_vpu()
        rng = np.random.default_rng(0)
        a = rng.integers(0, Q, 8, dtype=np.uint64)
        b = rng.integers(0, Q, 8, dtype=np.uint64)
        vpu.regfile.data[0] = a
        vpu.regfile.data[1] = b
        prog = Program([VAdd(2, 0, 1), VSub(3, 0, 1), VMul(4, 0, 1)])
        vpu.execute(prog)
        np.testing.assert_array_equal(vpu.regfile.data[2], (a + b) % Q)
        np.testing.assert_array_equal(vpu.regfile.data[3],
                                      (a.astype(np.int64) - b.astype(np.int64)) % Q)
        np.testing.assert_array_equal(
            vpu.regfile.data[4],
            (a.astype(object) * b.astype(object)) % Q)

    def test_scalar_and_twiddle_mul(self):
        vpu = fresh_vpu()
        a = np.arange(8, dtype=np.uint64)
        tw = tuple(range(10, 18))
        vpu.regfile.data[0] = a
        vpu.execute(hand_bound([VMulScalar(1, 0, 0), VMulTwiddle(2, 0, 0)],
                               twiddles=tw, scalars=[7]))
        np.testing.assert_array_equal(vpu.regfile.data[1], a * 7 % Q)
        np.testing.assert_array_equal(vpu.regfile.data[2],
                                      a * np.array(tw, dtype=np.uint64) % Q)

    def test_twiddle_length_check(self):
        vpu = fresh_vpu()
        with pytest.raises(ValueError):
            vpu.execute(hand_bound([VMulTwiddle(1, 0, 0)], twiddles=(1, 2, 3)))

    def test_wide_modulus_scalar_path(self):
        from repro.arith import find_ntt_prime

        q = find_ntt_prime(16, 60)
        vpu = fresh_vpu(q=q)
        a = np.array([q - 1] * 8, dtype=np.uint64)
        vpu.regfile.data[0] = a
        vpu.execute(Program([VMul(1, 0, 0)]))
        expected = pow(q - 1, 2, q)
        assert all(int(v) == expected for v in vpu.regfile.data[1])


class TestButterfly:
    def test_dif_butterfly(self):
        vpu = fresh_vpu()
        x = np.arange(8, dtype=np.uint64)
        tw = (3, 5, 7, 11)
        vpu.regfile.data[0] = x
        vpu.execute(hand_bound([Butterfly("dif", 1, 0, 0)], twiddles=tw))
        out = vpu.regfile.data[1]
        for j in range(4):
            u, v = int(x[2 * j]), int(x[2 * j + 1])
            assert int(out[2 * j]) == (u + v) % Q
            assert int(out[2 * j + 1]) == (u - v) * tw[j] % Q

    def test_dit_butterfly(self):
        vpu = fresh_vpu()
        x = np.arange(8, dtype=np.uint64)
        tw = (3, 5, 7, 11)
        vpu.regfile.data[0] = x
        vpu.execute(hand_bound([Butterfly("dit", 1, 0, 0)], twiddles=tw))
        out = vpu.regfile.data[1]
        for j in range(4):
            u, v = int(x[2 * j]), int(x[2 * j + 1])
            t = v * tw[j] % Q
            assert int(out[2 * j]) == (u + t) % Q
            assert int(out[2 * j + 1]) == (u - t) % Q

    def test_kind_check(self):
        with pytest.raises(ValueError):
            Butterfly("xxx", 1, 0, 0)

    def test_twiddle_count_check(self):
        vpu = fresh_vpu()
        with pytest.raises(ValueError):
            vpu.execute(hand_bound([Butterfly("dif", 1, 0, 0)], twiddles=(1, 2)))


class TestMemoryAndNetwork:
    def test_load_store_roundtrip(self):
        vpu = fresh_vpu()
        row = np.arange(8, dtype=np.uint64)
        vpu.memory.data[5] = row
        vpu.execute(Program([Load(0, 5), Store(0, 6)]))
        np.testing.assert_array_equal(vpu.memory.data[6], row)

    def test_vector_memory_pack_unpack(self):
        """The one memory layout: ``pack_for_ntt`` puts column ``c`` of
        the ``m x N/m`` matrix in row ``c``, ``unpack_columns`` reads it
        back, for one memory and for a stack of images."""
        vpu = fresh_vpu()
        x = np.arange(32, dtype=np.uint64)
        vpu.memory.data[2:6] = pack_for_ntt(x, 8)
        np.testing.assert_array_equal(vpu.memory.data[3], x[1::4])
        out = unpack_columns(vpu.memory, 32, 8, base_row=2)
        np.testing.assert_array_equal(out, x)
        assert not np.shares_memory(out, vpu.memory.data)
        images = np.stack([vpu.memory.data, vpu.memory.data + 1])
        np.testing.assert_array_equal(
            unpack_columns(images, 32, 8, base_row=2), [x, x + 1])

    def test_memory_validation(self):
        with pytest.raises(ValueError):
            pack_for_ntt(np.arange(5), 8)
        with pytest.raises(ValueError):
            VectorMemory(8, 0)

    def test_network_pass_instruction(self):
        vpu = fresh_vpu()
        x = np.arange(8, dtype=np.uint64)
        vpu.regfile.data[0] = x
        config = NetworkConfig(shift=affine_controls(8, 1, 3))
        vpu.execute(Program([NetworkPass(1, 0, config)]))
        np.testing.assert_array_equal(vpu.regfile.data[1], np.roll(x, 3))


class TestStats:
    def test_resource_accounting(self):
        vpu = fresh_vpu()
        prog = hand_bound([
            VAdd(2, 0, 1),
            VMul(3, 0, 1),
            Butterfly("dif", 4, 0, 0),
            NetworkPass(5, 0, NetworkConfig()),
            Load(6, 0),
            Store(6, 1),
        ], twiddles=[1] * 4)
        stats = vpu.run_fresh(prog)
        assert stats.cycles == 6
        assert stats.multiplier_busy == 2  # VMul + Butterfly
        assert stats.adder_busy == 2       # VAdd + Butterfly
        assert stats.network_passes == 1
        assert stats.loads == 1 and stats.stores == 1
        assert stats.by_type["VAdd"] == 1

    def test_compute_utilization(self):
        vpu = fresh_vpu()
        prog = Program([VAdd(2, 0, 1), NetworkPass(3, 0, NetworkConfig())])
        stats = vpu.run_fresh(prog)
        assert stats.compute_utilization() == 0.5

    def test_compute_utilization_counts_fused_ntt_stages(self):
        from repro.mapping import compile_ntt, required_registers

        vpu = fresh_vpu(64, regfile_entries=required_registers(64),
                        memory_rows=64)
        stats = vpu.run_fresh(compile_ntt(4096, 64))
        assert (stats.compute_busy, stats.cycles) == (832, 1344)
        assert stats.compute_utilization() == 832 / 1344

    def test_modulus_rebind(self):
        vpu = fresh_vpu()
        vpu.set_modulus(12289)
        assert vpu.q == 12289
        vpu.regfile.data[0] = np.full(8, 12288, dtype=np.uint64)
        vpu.execute(Program([VMul(1, 0, 0)]))
        assert all(int(v) == 1 for v in vpu.regfile.data[1])
