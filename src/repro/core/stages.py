"""Network stages at MUX level (paper Fig. 2).

Every stage is a row of ``m`` 2-to-1 MUXes: output lane ``j`` selects
between its *local* input (lane ``j``) and one *fixed* remote lane.  The
remote source is what distinguishes the stage types:

* :class:`CgStage` — the constant-geometry NTT wiring.  DIF gathers the
  strided butterfly pair ``(j, j+m/2)`` into adjacent lanes
  ``(2j, 2j+1)``; DIT scatters adjacent results back.  Active or
  inactive as a whole (one control bit), optionally split into
  independent groups for short NTT dimensions (§IV-A).
* :class:`ShiftStage` — a cyclic shift by a fixed power-of-two distance
  ``d``.  Its MUXes form ``d`` disjoint cycles with one control signal
  each (§III-B: "the stages have m/2, m/4, ..., 1 independent signals").
"""

from __future__ import annotations

import numpy as np

from repro.ntt.constant_geometry import (
    dif_gather_permutation,
    dit_scatter_permutation,
)


class MuxConflictError(ValueError):
    """A select pattern drives two sources onto one output lane.

    Reachable only through fault injection on raw mux select lines —
    legal control words are co-controlled per lane cycle and always
    describe bijections.  Distinct from ``ValueError`` so fault
    campaigns can classify it as a ``crash`` outcome.
    """


class _Stage:
    """Common mux-row machinery: a fixed remote-source wiring."""

    def __init__(self, m: int, remote_source: np.ndarray, name: str):
        if m < 2 or m & (m - 1):
            raise ValueError(f"m must be a power of two >= 2, got {m}")
        self.m = m
        self.remote_source = np.asarray(remote_source, dtype=np.int64)
        self.name = name

    def mux_count(self) -> int:
        return self.m

    def forward(self, x: np.ndarray, selects: np.ndarray) -> np.ndarray:
        """Drive the mux row: ``out[j] = x[remote[j]] if selects[j] else x[j]``.

        ``selects`` must describe a bijection (checked), mirroring the
        hardware constraint that conflicting MUXes are co-controlled.
        """
        x = np.asarray(x)
        if len(x) != self.m:
            raise ValueError(f"expected {self.m} lanes, got {len(x)}")
        selects = np.asarray(selects, dtype=bool)
        if len(selects) != self.m:
            raise ValueError(f"expected {self.m} selects, got {len(selects)}")
        src = np.where(selects, self.remote_source, np.arange(self.m))
        if len(np.unique(src)) != self.m:
            raise MuxConflictError(
                f"{self.name}: select pattern is not a bijection"
            )
        return x[src]


class CgStage(_Stage):
    """A constant-geometry stage (DIT or DIF flavour).

    ``group_size`` < m activates the grouped mode: the stage behaves as
    ``m / group_size`` independent CG networks, used when the last NTT
    dimension is shorter than the lane count.
    """

    def __init__(self, m: int, kind: str):
        if kind not in ("dit", "dif"):
            raise ValueError(f"kind must be 'dit' or 'dif', got {kind}")
        # Both permutations are already in source-index form:
        # out[p] = in[perm[p]].
        source = (dit_scatter_permutation(m) if kind == "dit"
                  else dif_gather_permutation(m))
        super().__init__(m, source, f"cg-{kind}")
        self.kind = kind
        self._grouped: dict[int, np.ndarray] = {}

    def grouped_source(self, group_size: int) -> np.ndarray:
        """Source indices when split into independent sub-networks."""
        if group_size in self._grouped:
            return self._grouped[group_size]
        if group_size < 2 or group_size > self.m or group_size & (group_size - 1):
            raise ValueError(f"bad group size {group_size}")
        if self.m % group_size:
            raise ValueError(f"{group_size} does not divide {self.m}")
        sub = CgStage(group_size, self.kind).remote_source
        blocks = [sub + g * group_size for g in range(self.m // group_size)]
        source = self._grouped[group_size] = np.concatenate(blocks)
        return source

    def apply(self, x: np.ndarray, active: bool = True,
              group_size: int | None = None) -> np.ndarray:
        """Route a vector through the stage (whole-stage control bit)."""
        x = np.asarray(x)
        if not active:
            return x.copy()
        if group_size is None or group_size == self.m:
            return x[self.remote_source]
        return x[self.grouped_source(group_size)]


class ShiftStage(_Stage):
    """A cyclic-shift stage of fixed distance ``d`` (a power of two).

    Output lane ``j`` can take lane ``(j - d) mod m``.  The ``d`` control
    signals each govern one cycle of lanes congruent mod ``d``.
    """

    def __init__(self, m: int, distance: int):
        if distance <= 0 or distance >= m or distance & (distance - 1):
            raise ValueError(f"distance must be a power of two in (0, m), got {distance}")
        source = (np.arange(m) - distance) % m
        super().__init__(m, source, f"shift-{distance}")
        self.distance = distance

    @property
    def control_signal_count(self) -> int:
        """Independent control signals: one per lane cycle = distance."""
        return self.distance

    def selects_from_group_bits(self, group_bits: tuple[int, ...]) -> np.ndarray:
        """Expand per-cycle control bits to per-lane mux selects."""
        if len(group_bits) != self.distance:
            raise ValueError(
                f"stage distance {self.distance} needs {self.distance} bits"
            )
        bits = np.array(group_bits, dtype=np.int64)
        return bits[np.arange(self.m) % self.distance].astype(bool)
