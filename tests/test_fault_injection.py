"""The fault-injection engine: hook transparency and per-site behavior."""

import numpy as np
import pytest

from repro.accel.dram import DramModel
from repro.accel.sram import OnChipSram
from repro.arith.primes import find_ntt_prime
from repro.core.stages import MuxConflictError
from repro.fault.injector import (
    FaultInjector,
    FaultSpec,
    current_fault_hook,
    install_fault_hook,
    use_fault_hook,
)
from repro.fhe.backend import NumpyBackend, VpuBackend

N = 64
M = 16
Q = find_ntt_prime(2 * N, 28)


def _input(seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, Q, size=N, dtype=np.uint64)


def _forward(backend, x: np.ndarray) -> np.ndarray:
    """One row through the backend, as the L = 1 batch."""
    return backend.forward_ntt_batch(x[None, :], (Q,))[0]


def _golden(x: np.ndarray) -> np.ndarray:
    return _forward(NumpyBackend(mode="golden"), x)


def _run_with(spec: "FaultSpec | None") -> tuple[np.ndarray, FaultInjector,
                                                 VpuBackend]:
    backend = VpuBackend(M)
    injector = FaultInjector(() if spec is None else [spec])
    backend.vpu.install_fault_hook(injector)
    out = _forward(backend, _input())
    return out, injector, backend


class TestDormantHooks:
    def test_dormant_hook_is_bit_exact_and_cycle_exact(self):
        x = _input()
        plain = VpuBackend(M)
        base = _forward(plain, x)
        out, injector, hooked = _run_with(None)
        assert np.array_equal(base, out)
        # A hook with no specs must not change the modeled cycle count.
        assert hooked.vpu.stats.cycles == plain.vpu.stats.cycles
        assert injector.cycles == plain.vpu.stats.cycles
        assert injector.fired == []

    def test_no_hook_matches_numpy(self):
        x = _input()
        assert np.array_equal(_forward(VpuBackend(M), x), _golden(x))


class TestAluFaults:
    def test_stuck_bit_corrupts_output(self):
        spec = FaultSpec("alu", "stuck1", cycle=0, bit=33, lane=3)
        out, injector, _ = _run_with(spec)
        assert injector.fired == [spec]
        assert not np.array_equal(out, _golden(_input()))
        assert injector.exposures["alu"] > 0

    def test_transient_fires_exactly_once(self):
        spec = FaultSpec("alu", "transient", cycle=2, bit=5, lane=0)
        backend = VpuBackend(M)
        injector = FaultInjector([spec])
        backend.vpu.install_fault_hook(injector)
        _forward(backend, _input())
        assert injector.fired == [spec]
        # One-shot: a second run on the same injector stays clean.
        clean = _forward(backend, _input())
        assert np.array_equal(clean, _golden(_input()))


class TestStateFaults:
    def test_regfile_bitflip_lands_once(self):
        # Sweep arming cycles until the flip lands in live state.
        for cycle in range(1, 40):
            spec = FaultSpec("regfile", "bitflip", cycle=cycle, bit=27,
                             word=0, lane=1)
            out, injector, _ = _run_with(spec)
            if injector.fired and not np.array_equal(out, _golden(_input())):
                return
        pytest.fail("no register-file bitflip perturbed the output")

    def test_sram_bitflip_lands(self):
        for cycle in range(0, 20):
            spec = FaultSpec("sram", "bitflip", cycle=cycle, bit=13,
                             word=1, lane=4)
            out, injector, _ = _run_with(spec)
            if injector.fired and not np.array_equal(out, _golden(_input())):
                return
        pytest.fail("no scratchpad bitflip perturbed the output")

    def test_memory_stuck_read(self):
        spec = FaultSpec("sram", "stuck1", cycle=0, bit=34, word=0, lane=0)
        out, injector, _ = _run_with(spec)
        assert injector.fired == [spec]
        assert not np.array_equal(out, _golden(_input()))


class TestNetworkFaults:
    def test_control_word_flip_changes_routing(self):
        # Bit 2 is the first shift group bit of the control word.
        spec = FaultSpec("network", "bitflip", cycle=0, bit=2)
        out, injector, _ = _run_with(spec)
        assert injector.fired == [spec]
        assert not np.array_equal(out, _golden(_input()))

    def test_raw_mux_select_breaks_bijection(self):
        # Forcing one lane's select without its co-controlled partner is
        # two sources driving one lane: the stage model raises.
        spec = FaultSpec("network", "stuck1", cycle=0, bit=0, word=1, lane=0)
        backend = VpuBackend(M)
        backend.vpu.install_fault_hook(FaultInjector([spec]))
        with pytest.raises(MuxConflictError):
            _forward(backend, _input())

    def test_stuck_agreeing_with_line_is_masked(self):
        # CG-DIF is active during DIF stages; stuck1 on its line agrees.
        spec = FaultSpec("network", "stuck1", cycle=0, bit=1)
        out, injector, _ = _run_with(spec)
        assert np.array_equal(out, _golden(_input())) or injector.fired


class TestBufferFaults:
    def test_dram_transfer_corruption(self):
        model = DramModel()
        buf = np.arange(16, dtype=np.uint64)
        injector = FaultInjector(
            [FaultSpec("dram", "bitflip", cycle=0, bit=5, lane=3)])
        out, ns = model.transfer(buf, injector)
        assert ns > 0
        assert out[3] == buf[3] ^ np.uint64(1 << 5)
        assert np.array_equal(np.delete(out, 3), np.delete(buf, 3))
        assert buf[3] == 3  # the source buffer is untouched

    def test_dram_without_hook_is_identity(self):
        buf = np.arange(16, dtype=np.uint64)
        out, _ = DramModel().transfer(buf)
        assert np.array_equal(out, buf)

    def test_sram_stage_corruption(self):
        sram = OnChipSram()
        sram.fault_hook = FaultInjector(
            [FaultSpec("sram", "stuck1", cycle=0, bit=2, lane=1)])
        buf = np.zeros(8, dtype=np.uint64)
        out, cycles = sram.stage(buf)
        assert cycles >= 1
        assert out[1] == 4 and out[0] == 0

    def test_buffer_op_arming(self):
        # cycle counts staging operations on the site, not VPU cycles.
        model = DramModel()
        injector = FaultInjector(
            [FaultSpec("dram", "transient", cycle=1, bit=0, lane=0)])
        buf = np.zeros(4, dtype=np.uint64)
        first, _ = model.transfer(buf, injector)
        second, _ = model.transfer(buf, injector)
        assert np.array_equal(first, buf)
        assert second[0] == 1


class TestSpecsAndHookRegistry:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("turbo", "bitflip", 0, 0)
        with pytest.raises(ValueError):
            FaultSpec("alu", "melt", 0, 0)
        with pytest.raises(ValueError):
            FaultSpec("alu", "bitflip", 0, 64)
        with pytest.raises(ValueError):
            FaultSpec("alu", "bitflip", -1, 0)
        # Network faults index control lines and may exceed 64.
        FaultSpec("network", "bitflip", 0, 70)

    def test_global_hook_registry(self):
        injector = FaultInjector(())
        assert current_fault_hook() is None
        previous = install_fault_hook(injector)
        assert previous is None
        assert current_fault_hook() is injector
        install_fault_hook(None)
        with use_fault_hook(injector):
            assert current_fault_hook() is injector
        assert current_fault_hook() is None

    def test_spec_to_dict_round_trip(self):
        spec = FaultSpec("alu", "stuck0", cycle=9, bit=3, word=1, lane=2)
        assert FaultSpec(**spec.to_dict()) == spec
