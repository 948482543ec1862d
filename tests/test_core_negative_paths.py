"""Negative-path and edge-case tests for the core VPU layer."""

import numpy as np
import pytest

from repro.core import (
    Load,
    NetworkConfig,
    NetworkPass,
    NttStage,
    Program,
    Store,
    VectorProcessingUnit,
)
from repro.core.vpu import VectorMemory
from repro.fault import FaultInjector


class TestInstructionValidation:
    def test_network_pass_rot_window_pairing(self):
        with pytest.raises(ValueError):
            NetworkPass(1, 0, NetworkConfig(), src_rot=2)
        with pytest.raises(ValueError):
            NetworkPass(1, 0, NetworkConfig(), src_window=4)
        with pytest.raises(ValueError):
            NetworkPass(1, 0, NetworkConfig(), src_rot=0, src_window=0)

    def test_ntt_stage_kind(self):
        with pytest.raises(ValueError):
            NttStage("fft", 0, 0, (1,))

    @pytest.mark.parametrize("kind", [Load, Store])
    def test_negative_memory_row(self, kind):
        # It would index the memory from its end.
        with pytest.raises(ValueError, match="non-negative"):
            kind(0, -1)

    @pytest.mark.parametrize("hooked", [False, True])
    def test_rows_past_the_memory_raise(self, hooked):
        """On the step loop, whether a fault hook is installed or the
        lock-step schedule names a row the memory does not have."""
        vpu = VectorProcessingUnit(m=4, q=97, regfile_entries=4,
                                   memory_rows=2)
        vpu.install_fault_hook(FaultInjector() if hooked else None)
        for program in (Program([Load(0, 2)]),
                        Program([Load(0, 1), Store(0, 2)])):
            with pytest.raises(IndexError):
                vpu.execute(program)
        assert not vpu.memory.data.any()

    def test_diag_read_window_bounds(self):
        vpu = VectorProcessingUnit(m=8, q=998244353, regfile_entries=4)
        prog = Program([NetworkPass(1, 0, NetworkConfig(),
                                    src_rot=0, src_window=8)])
        with pytest.raises(IndexError):
            vpu.execute(prog)

    def test_unknown_instruction_rejected(self):
        from repro.core.isa import Instruction

        class Bogus(Instruction):
            pass

        vpu = VectorProcessingUnit(m=8, q=998244353)
        with pytest.raises(TypeError):
            vpu.execute(Program([Bogus()]))


class TestVectorMemoryEdges:
    def test_zero_sizes_rejected(self):
        with pytest.raises(ValueError):
            VectorMemory(0, 4)
        with pytest.raises(ValueError):
            VectorMemory(4, 0)

    def test_overflow_rejected(self):
        mem = VectorMemory(8, 2)
        with pytest.raises(ValueError):
            mem.load_vector(np.zeros(32, dtype=np.uint64))


class TestModulusEdges:
    def test_modulus_swap_mid_stream(self):
        """RNS limb processing swaps moduli between programs; results must
        track the active modulus."""
        vpu = VectorProcessingUnit(m=8, q=17)
        vpu.regfile.write(0, np.full(8, 16, dtype=np.uint64))
        from repro.core import VMul

        vpu.execute(Program([VMul(1, 0, 0)]))
        assert all(int(v) == (16 * 16) % 17 for v in vpu.regfile.read(1))
        vpu.set_modulus(97)
        vpu.regfile.write(0, np.full(8, 96, dtype=np.uint64))
        vpu.execute(Program([VMul(1, 0, 0)]))
        assert all(int(v) == (96 * 96) % 97 for v in vpu.regfile.read(1))

    def test_stats_survive_modulus_swap(self):
        vpu = VectorProcessingUnit(m=8, q=17)
        from repro.core import VAdd

        vpu.execute(Program([VAdd(1, 0, 0)]))
        vpu.set_modulus(97)
        vpu.execute(Program([VAdd(1, 0, 0)]))
        assert vpu.stats.cycles == 2
