"""Def-use facts of VPU micro-programs (``analyze_dataflow``): writes
nothing reads, live registers, the lane count the decoder accepts, and
the lane permutations the network's routes are."""

import pytest

from repro.analysis.dataflow import analyze_dataflow
from repro.core.isa import Instruction, Load, Program, Store, VAdd, VMulTwiddle
from repro.core.network import InterLaneNetwork, NetworkConfig


def _prog(*instrs: Instruction, label: str = "synthetic") -> Program:
    return Program(instructions=list(instrs), label=label)


class TestCleanPrograms:
    def test_minimal_load_compute_store(self):
        report = analyze_dataflow(_prog(
            Load(dst=0, addr=0),
            Load(dst=1, addr=8),
            VAdd(dst=2, a=0, b=1),
            Store(src=2, addr=0),
        ), m=16)
        assert report.registers_written == 3
        assert report.dead_at_exit == 0

    def test_in_place_update_is_not_a_finding(self):
        # dst == src is the normal CG NTT stage idiom.
        report = analyze_dataflow(_prog(
            Load(dst=0, addr=0),
            VAdd(dst=0, a=0, b=0),
            Store(src=0, addr=0),
        ), m=16)
        assert report.registers_written == 1
        assert report.dead_at_exit == 0

    def test_compiled_negacyclic_ntt_is_clean(self):
        from repro.mapping.ntt import compile_negacyclic_intt, \
            compile_negacyclic_ntt

        for program in (compile_negacyclic_ntt(256, 16),
                        compile_negacyclic_intt(256, 16)):
            report = analyze_dataflow(program, m=16)
            assert report.dead_at_exit == 0

    def test_compiled_automorphism_is_clean(self):
        from repro.automorphism.mapping import (
            galois_element_for_rotation,
            galois_eval_permutation,
        )
        from repro.mapping import compile_automorphism

        perm = galois_eval_permutation(
            256, galois_element_for_rotation(256, 1))
        report = analyze_dataflow(compile_automorphism(perm, 16), m=16)
        assert report.dead_at_exit == 0


class TestRoutesAndPorts:
    def test_real_network_routes_are_permutations(self):
        network = InterLaneNetwork(16)
        for config in (NetworkConfig(), NetworkConfig(cg="dit"),
                       NetworkConfig(cg="dif")):
            assert sorted(network.route(config).tolist()) == list(range(16))

    def test_twiddle_stream_port_is_not_a_data_read(self):
        # VMulTwiddle's port model reads [a, dst] (dst carries the
        # twiddle stream port), but only `a` is a dataflow read: r1 is
        # live only from its write to the store.
        report = analyze_dataflow(_prog(
            Load(dst=0, addr=0),
            VMulTwiddle(dst=1, a=0, row=0),
            Store(src=1, addr=0),
        ), m=16)
        assert report.peak_live_registers == 1
        assert report.dead_at_exit == 0


class TestValidation:
    def test_lane_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            analyze_dataflow(_prog(), m=12)
