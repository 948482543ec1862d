"""Negative-path and edge-case tests for the core VPU layer."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.arith.primes import find_ntt_prime
from repro.core import (
    Load,
    NetworkConfig,
    NetworkPass,
    NttStage,
    Program,
    Store,
    VectorProcessingUnit,
    VMulTwiddle,
)
from repro.core.isa import Instruction
from repro.core.network import InterLaneNetwork
from repro.core.vpu import VectorMemory, bind_table
from repro.fault import FaultInjector
from repro.mapping.ntt import compile_negacyclic_ntt, required_registers


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
        class Bogus(Instruction):
            pass

        vpu = VectorProcessingUnit(m=8, q=998244353)
        with pytest.raises(TypeError):
            vpu.execute(Program([Bogus()]))


M = 16
Q = find_ntt_prime(2 * 64, 28)


@dataclass(frozen=True)
class FakeWideRead(Instruction):
    """An instruction outside the ISA that needs three read ports."""

    def read_regs(self):
        return [0, 1, 2]

    def write_regs(self):
        return [3]


def _phantom_read():
    program = compile_negacyclic_ntt(256, M)
    program.instructions.append(Store(src=999, addr=0))
    return program, find_ntt_prime(512, 28)


def _twiddle_program(twiddles):
    program = Program(label="twiddle", instructions=[
        Load(dst=0, addr=0),
        VMulTwiddle(dst=1, a=0, row=0),
        Store(src=1, addr=0),
    ])
    bind_table(program, Q, twiddles=twiddles)
    return program, Q


def _three_reads():
    loads = [Load(dst=r, addr=8 * r) for r in range(3)]
    return Program(label="wide", instructions=[
        *loads, FakeWideRead(), Store(src=3, addr=0)]), Q


def _diagonal_onto_window():
    loads = [Load(dst=r, addr=8 * r) for r in range(4)]
    return Program(label="diag", instructions=[
        *loads,
        NetworkPass(dst=2, src=0, config=NetworkConfig(),
                    src_rot=0, src_window=4),
        Store(src=2, addr=0),
    ]), Q


def _network_pass():
    return Program(label="net", instructions=[
        Load(dst=0, addr=0),
        NetworkPass(dst=1, src=0, config=NetworkConfig()),
        Store(src=1, addr=0),
    ]), Q


MALFORMED = {
    # case: (build, what the unit raises before it runs the program)
    "phantom read": (_phantom_read, IndexError),
    "short twiddles": (lambda: _twiddle_program([1, 2, 3]), ValueError),
    "three read ports": (_three_reads, ValueError),
    # The unit runs these: an unreduced table word makes its lanes
    # divide, and the bit-identity tests of the compiled programs fail
    # on what a window clash or a non-permutation route produces.
    "unreduced twiddle": (lambda: _twiddle_program([Q] * M), None),
    "destination in diagonal window": (_diagonal_onto_window, None),
    "non-permutation route": (_network_pass, None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_program_is_refused_before_it_runs(case, monkeypatch):
    """The unit's lowering (port budget, register range, opcode) and its
    binding check (a constant slot past the table) are the only checks
    of a compiled program: a refused one retires nothing."""
    build, raises = MALFORMED[case]
    if case == "non-permutation route":
        monkeypatch.setattr(InterLaneNetwork, "route",
                            lambda self, config: np.zeros(self.m, dtype=int))
    program, q = build()
    unit = VectorProcessingUnit(m=M, q=q,
                                regfile_entries=required_registers(M))
    if raises is None:
        unit.execute(program)
        assert unit.stats.cycles == len(program.instructions)
    else:
        with pytest.raises(raises):
            unit.execute(program)
        assert unit.stats.cycles == 0 and not unit.regfile.data.any()


class TestVectorMemoryEdges:
    def test_zero_sizes_rejected(self):
        with pytest.raises(ValueError):
            VectorMemory(0, 4)
        with pytest.raises(ValueError):
            VectorMemory(4, 0)

    def test_overflow_rejected(self):
        """A row past the memory's last is refused, and the load that
        named it does not retire."""
        vpu = VectorProcessingUnit(m=8, q=17, memory_rows=2)
        with pytest.raises(IndexError):
            vpu.execute(Program([Load(0, 1), Load(0, 2)]))
        assert vpu.stats.loads == 1


class TestModulusEdges:
    def test_modulus_swap_mid_stream(self):
        """RNS limb processing swaps moduli between programs; results must
        track the active modulus."""
        vpu = VectorProcessingUnit(m=8, q=17)
        vpu.regfile.data[0] = np.full(8, 16, dtype=np.uint64)
        from repro.core import VMul

        vpu.execute(Program([VMul(1, 0, 0)]))
        assert all(int(v) == (16 * 16) % 17 for v in vpu.regfile.data[1])
        vpu.set_modulus(97)
        vpu.regfile.data[0] = np.full(8, 96, dtype=np.uint64)
        vpu.execute(Program([VMul(1, 0, 0)]))
        assert all(int(v) == (96 * 96) % 97 for v in vpu.regfile.data[1])

    def test_stats_survive_modulus_swap(self):
        vpu = VectorProcessingUnit(m=8, q=17)
        from repro.core import VAdd

        vpu.execute(Program([VAdd(1, 0, 0)]))
        vpu.set_modulus(97)
        vpu.execute(Program([VAdd(1, 0, 0)]))
        assert vpu.stats.cycles == 2
