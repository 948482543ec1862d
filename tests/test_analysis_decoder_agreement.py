"""The VPU and the two micro-program passes agree on malformed programs.

Each seeded program maps to three verdicts: the exact rule list of
:func:`check_program` (interval pass), the exact rule list of
:func:`check_dataflow` (def-use pass), and the exception type the VPU
raises before it runs the program — lowering it, or checking its bound
table against the lowering (``None``: the unit runs it).  A
finding belongs to exactly one pass, so no row names a defect twice.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis.dataflow import check_dataflow
from repro.analysis.program_check import check_program
from repro.arith.primes import find_ntt_prime
from repro.core import VectorProcessingUnit
from repro.core.isa import (
    Instruction,
    Load,
    NetworkPass,
    Program,
    Store,
    VMulTwiddle,
)
from repro.core.network import InterLaneNetwork, NetworkConfig
from repro.core.vpu import bind_table
from repro.mapping.ntt import compile_negacyclic_ntt, required_registers

M = 16
Q = find_ntt_prime(2 * 64, 28)
WIDE_Q = find_ntt_prime(2 * 64, 31)


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
    return program, find_ntt_prime(512, 28), {}


def _twiddle_program(twiddles, q=Q, **options):
    program = Program(label="twiddle", instructions=[
        Load(dst=0, addr=0),
        VMulTwiddle(dst=1, a=0, row=0),
        Store(src=1, addr=0),
    ])
    bind_table(program, q, twiddles=twiddles)
    return program, q, options


def _three_reads():
    loads = [Load(dst=r, addr=8 * r) for r in range(3)]
    return Program(label="wide", instructions=[
        *loads, FakeWideRead(), Store(src=3, addr=0)]), Q, {}


def _diagonal_onto_window():
    loads = [Load(dst=r, addr=8 * r) for r in range(4)]
    return Program(label="diag", instructions=[
        *loads,
        NetworkPass(dst=2, src=0, config=NetworkConfig(),
                    src_rot=0, src_window=4),
        Store(src=2, addr=0),
    ]), Q, {}


def _network_pass():
    return Program(label="net", instructions=[
        Load(dst=0, addr=0),
        NetworkPass(dst=1, src=0, config=NetworkConfig()),
        Store(src=1, addr=0),
    ]), Q, {}


CASES = {
    # case: (build, program rules, dataflow rules, strict lowering raises)
    "phantom read": (_phantom_read, ["P004"], ["D001"], IndexError),
    "short twiddles": (lambda: _twiddle_program([1, 2, 3]),
                       ["P005"], [], ValueError),
    "unreduced twiddle": (lambda: _twiddle_program([Q] * M),
                          ["P003"], [], None),
    "three read ports": (_three_reads, ["P007", "P004"], ["D005"],
                         ValueError),
    "destination in diagonal window": (_diagonal_onto_window,
                                       [], ["D004"], None),
    "non-permutation route": (_network_pass, [], ["D003"], None),
    "lazy input": (lambda: _twiddle_program(
        [WIDE_Q - 1] * M, WIDE_Q, input_bound=2 * WIDE_Q - 1),
        ["P002"], [], None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_passes_and_lowering_agree(case, monkeypatch):
    build, program_rules, dataflow_rules, raises = CASES[case]
    if case == "non-permutation route":
        monkeypatch.setattr(InterLaneNetwork, "route",
                            lambda self, config: np.zeros(self.m, dtype=int))
    # A fresh program per verdict: nothing one verdict decodes is seen
    # by the next.
    program, q, options = build()
    report = check_program(program, q=q, m=M, **options)
    assert [f.rule for f in report.findings] == program_rules
    program, _, _ = build()
    report = check_dataflow(program, m=M)
    assert [f.rule for f in report.findings] == dataflow_rules
    program, _, _ = build()
    unit = VectorProcessingUnit(m=M, q=q,
                                regfile_entries=required_registers(M))
    if raises is None:
        unit.execute(program)
    else:
        with pytest.raises(raises):
            unit.execute(program)
