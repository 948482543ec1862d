"""Banked on-chip SRAM model.

The accelerator's scratchpad caches ciphertext limbs "for maximum reuse"
(paper Fig. 1a).  The model tracks capacity, per-cycle bandwidth, and
access energy; the scheduler charges it for every vector row moved in or
out of a VPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.hwmodel.components import CostReport
from repro.hwmodel.sram import SramMacro


@dataclass
class OnChipSram:
    """The shared scratchpad.

    Parameters
    ----------
    capacity_bytes:
        Total capacity (default 4 MiB, enough for several N=4096
        six-limb ciphertexts).
    banks:
        Independently addressable banks; aggregate bandwidth is
        ``banks * words_per_bank_per_cycle`` 64-bit words per cycle.
    words_per_bank_per_cycle:
        Port width of each bank in 64-bit words.
    """

    capacity_bytes: int = 4 << 20
    banks: int = 16
    words_per_bank_per_cycle: int = 64
    reads: int = field(default=0, init=False)
    writes: int = field(default=0, init=False)
    #: Optional fault-injection hook (guard-checked no-op when None).
    fault_hook: object = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.banks <= 0:
            raise ValueError("capacity and banks must be positive")

    @property
    def words_per_cycle(self) -> int:
        """Aggregate 64-bit words deliverable per cycle."""
        return self.banks * self.words_per_bank_per_cycle

    def access_cycles(self, words: int, write: bool = False) -> int:
        """Cycles to stream ``words`` 64-bit words (ideal banking)."""
        if words < 0:
            raise ValueError("words must be non-negative")
        if write:
            self.writes += words
        else:
            self.reads += words
        return -(-words // self.words_per_cycle)

    def stage(self, buffer: np.ndarray,
              write: bool = False) -> "tuple[np.ndarray, int]":
        """Stage a uint64 buffer through the scratchpad: charges the
        bandwidth model and exposes the resident words to the (optional)
        fault hook — site ``"sram"``.  Returns the staged copy and the
        access cycles; a working set that does not fit raises rather
        than model a machine with infinite SRAM."""
        if not self.fits(np.size(buffer)):
            raise ValueError(
                f"working set of {np.size(buffer)} words does not fit "
                f"the {self.capacity_bytes}-byte SRAM; stage in "
                f"tiles or enlarge the scratchpad")
        out = np.array(buffer, dtype=np.uint64)
        with obs.span("sram.stage", cat="mem", words=out.size,
                      write=bool(write)) as span:
            cycles = self.access_cycles(out.size, write)
            hook = self.fault_hook
            if hook is not None:
                hook.corrupt_buffer("sram", out)
            obs.count("sram.bytes", out.size * 8)
            obs.count("sram.stage_cycles", cycles)
            span.set(cycles=cycles)
        return out, cycles

    def fits(self, words: int) -> bool:
        """Whether a working set of 64-bit words fits on chip."""
        return words * 8 <= self.capacity_bytes

    def cost(self) -> CostReport:
        """Area/power via the shared SRAM macro model (one macro/bank)."""
        per_bank_bits = (self.capacity_bytes * 8) // self.banks
        macro = SramMacro(
            bits=per_bank_bits,
            io_bits=self.words_per_bank_per_cycle * 64,
            ports=1,
            duty=0.5,
            label="scratchpad bank",
        )
        bank = macro.cost()
        return CostReport(bank.area_um2 * self.banks,
                          bank.power_mw * self.banks,
                          f"on-chip SRAM ({self.capacity_bytes >> 20} MiB)")
