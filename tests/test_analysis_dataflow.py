"""Def-use dataflow verification of VPU micro-programs (fhecheck D rules)."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis.dataflow import check_dataflow
from repro.arith.primes import find_ntt_prime
from repro.core.isa import (
    Instruction,
    Load,
    NetworkPass,
    Program,
    Store,
    VAdd,
    VMulTwiddle,
)
from repro.core.network import InterLaneNetwork, NetworkConfig


def _prog(*instrs: Instruction, label: str = "synthetic") -> Program:
    return Program(instructions=list(instrs), label=label)


def _error_rules(report) -> list[str]:
    return [f.rule for f in report.findings.errors]


def _all_rules(report) -> list[str]:
    return [f.rule for f in report.findings]


class TestCleanPrograms:
    def test_minimal_load_compute_store(self):
        report = check_dataflow(_prog(
            Load(dst=0, addr=0),
            Load(dst=1, addr=8),
            VAdd(dst=2, a=0, b=1),
            Store(src=2, addr=0),
        ), m=16)
        assert report.ok
        assert report.findings.findings == []
        assert report.registers_written == 3
        assert report.dead_at_exit == 0

    def test_in_place_update_is_not_a_finding(self):
        # dst == src is the normal CG NTT stage idiom.
        report = check_dataflow(_prog(
            Load(dst=0, addr=0),
            VAdd(dst=0, a=0, b=0),
            Store(src=0, addr=0),
        ), m=16)
        assert report.ok and not report.findings.findings

    def test_compiled_negacyclic_ntt_is_clean(self):
        from repro.mapping.ntt import compile_negacyclic_intt, \
            compile_negacyclic_ntt

        q = find_ntt_prime(512, 28)
        for program in (compile_negacyclic_ntt(256, 16),
                        compile_negacyclic_intt(256, 16)):
            report = check_dataflow(program, m=16)
            assert report.ok, list(report.findings)
            assert report.dead_at_exit == 0

    def test_compiled_automorphism_is_clean(self):
        from repro.automorphism.mapping import (
            galois_element_for_rotation,
            galois_eval_permutation,
        )
        from repro.mapping import compile_automorphism

        perm = galois_eval_permutation(
            256, galois_element_for_rotation(256, 1))
        report = check_dataflow(compile_automorphism(perm, 16), m=16)
        assert report.ok and report.dead_at_exit == 0


class TestD001UninitializedRead:
    def test_read_before_any_write(self):
        report = check_dataflow(_prog(Store(src=7, addr=0)), m=16)
        assert _error_rules(report) == ["D001"]
        assert "r7" in report.findings.errors[0].message

    def test_deduped_per_register(self):
        # One compiler bug -> one finding, not a cascade.
        report = check_dataflow(_prog(
            Store(src=7, addr=0),
            Store(src=7, addr=8),
        ), m=16)
        assert _error_rules(report) == ["D001"]


class TestD002DeadWrite:
    def test_overwrite_without_read_is_a_warning(self):
        report = check_dataflow(_prog(
            Load(dst=0, addr=0),
            Load(dst=0, addr=8),
            Store(src=0, addr=0),
        ), m=16)
        assert _all_rules(report) == ["D002"]
        assert report.ok  # warnings never gate

    def test_unread_at_exit_is_a_warning(self):
        report = check_dataflow(_prog(Load(dst=0, addr=0)), m=16)
        assert _all_rules(report) == ["D002"]
        assert report.dead_at_exit == 1


class TestD003RoutingPermutation:
    def test_broken_route_table_flagged(self, monkeypatch):
        # The real network only produces permutations; force a mux fault.
        monkeypatch.setattr(InterLaneNetwork, "route",
                            lambda self, config: np.zeros(self.m, dtype=int))
        report = check_dataflow(_prog(
            Load(dst=0, addr=0),
            NetworkPass(dst=1, src=0, config=NetworkConfig()),
            Store(src=1, addr=0),
        ), m=16)
        assert _error_rules(report) == ["D003"]

    def test_real_network_routes_are_permutations(self):
        report = check_dataflow(_prog(
            Load(dst=0, addr=0),
            NetworkPass(dst=1, src=0, config=NetworkConfig(cg="dit")),
            Store(src=1, addr=0),
        ), m=16)
        assert report.ok


class TestD004DiagonalHazard:
    def test_destination_inside_source_window(self):
        loads = [Load(dst=r, addr=8 * r) for r in range(4)]
        report = check_dataflow(_prog(
            *loads,
            NetworkPass(dst=2, src=0, config=NetworkConfig(),
                        src_rot=0, src_window=4),
            Store(src=2, addr=0),
        ), m=16)
        assert "D004" in _error_rules(report)

    def test_destination_outside_window_is_clean(self):
        loads = [Load(dst=r, addr=8 * r) for r in range(4)]
        report = check_dataflow(_prog(
            *loads,
            NetworkPass(dst=8, src=0, config=NetworkConfig(),
                        src_rot=0, src_window=4),
            Store(src=8, addr=0),
            *[Store(src=r, addr=64 + 8 * r) for r in range(1, 4)],
        ), m=16)
        assert report.ok, list(report.findings)


class TestD005PortBudget:
    def test_three_read_ports_flagged(self):
        @dataclass(frozen=True)
        class FakeWideRead(Instruction):
            def read_regs(self):
                return [0, 1, 2]

            def write_regs(self):
                return [3]

        loads = [Load(dst=r, addr=8 * r) for r in range(3)]
        report = check_dataflow(
            _prog(*loads, FakeWideRead(), Store(src=3, addr=0)), m=16)
        assert "D005" in _error_rules(report)

    def test_twiddle_stream_port_is_not_a_data_read(self):
        # VMulTwiddle's port model reads [a, dst] (dst carries the
        # twiddle stream port), but only `a` is a dataflow read — the
        # walk must not demand dst be initialized.
        report = check_dataflow(_prog(
            Load(dst=0, addr=0),
            VMulTwiddle(dst=1, a=0, row=0),
            Store(src=1, addr=0),
        ), m=16)
        assert report.ok, list(report.findings)


class TestValidation:
    def test_lane_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            check_dataflow(_prog(), m=12)
