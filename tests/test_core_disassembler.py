"""Tests for the program disassembler."""

from repro.core import (
    Butterfly,
    Load,
    NetworkConfig,
    NetworkPass,
    NttStage,
    Program,
    Store,
    VAdd,
    VMul,
    VMulScalar,
    VMulTwiddle,
    VSub,
)
from repro.automorphism import affine_controls
from repro.mapping import compile_ntt


class TestDisassembler:
    def test_every_instruction_formats(self):
        prog = Program([
            VAdd(2, 0, 1),
            VSub(3, 0, 1),
            VMul(4, 0, 1),
            VMulScalar(5, 0, 7),
            VMulTwiddle(6, 0, 8),
            Butterfly("dif", 7, 0, 4),
            NttStage("dit", 0, 0, 4, group_size=4),
            NetworkPass(1, 0, NetworkConfig(cg="dif")),
            NetworkPass(1, 0, NetworkConfig(shift=affine_controls(8, 3)),
                        src_rot=2, src_window=8),
            Load(0, 5),
            Store(0, 6),
        ], label="demo")
        text = prog.disassemble()
        assert "demo" in text
        assert "r2 = r0 + r1" in text
        assert "r3 = r0 - r1" in text
        assert "r4 = r0 * r1" in text
        assert "r5 = r0 * s[7]" in text
        assert "tw[8]" in text
        assert "bfly.dif" in text
        assert "nttstage.dit" in text and "/g4" in text
        assert "net[cg=dif]" in text
        assert "diag(rot=2,w=8)" in text and "shift" in text
        assert "r0 = mem[5]" in text
        assert "mem[6] = r0" in text

    def test_limit_truncates(self):
        prog = compile_ntt(64, 8)
        text = prog.disassemble(limit=5)
        assert "more" in text
        assert text.count("\n") <= 8

    def test_full_listing_length(self):
        prog = compile_ntt(64, 8)
        text = prog.disassemble()
        # Header + one line per instruction.
        assert text.count("\n") == len(prog)
