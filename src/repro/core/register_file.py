"""Per-lane register files (paper Fig. 1c: 2 read ports, 1 write port).

The model stores all lanes' registers as one ``(entries, m)`` array —
register ``r`` across the lanes is row ``r`` — because every instruction
addresses the same register index in every lane (SIMD).  The executor
reads and writes ``data`` itself: its step loop is the one read port,
and it passes each read through the unit's fault hook
(``filter_regfile_read``).  This class holds what a decoder checks — the
register range and the 2R1W port budget of one instruction — and the
access counters the executor books.
"""

from __future__ import annotations

import numpy as np


class RegisterFile:
    """A bank of ``entries`` registers of one word per lane."""

    def __init__(self, m: int, entries: int):
        if m <= 0 or entries <= 0:
            raise ValueError("m and entries must be positive")
        self.m = m
        self.entries = entries
        self.data = np.zeros((entries, m), dtype=np.uint64)
        self.reads = 0
        self.writes = 0

    def check_range(self, reg: int) -> None:
        """Reject a register index this file does not have."""
        if not 0 <= reg < self.entries:
            raise IndexError(f"register {reg} out of range [0, {self.entries})")

    def check_ports(self, read_regs: list[int], write_regs: list[int]) -> None:
        """Enforce the 2R1W port budget of one instruction."""
        if len(set(read_regs)) > 2:
            raise ValueError(f"instruction needs {len(set(read_regs))} read ports > 2")
        if len(set(write_regs)) > 1:
            raise ValueError(f"instruction needs {len(set(write_regs))} write ports > 1")
