"""The full inter-lane network (paper Fig. 2).

Stage order matches the figure: the DIT constant-geometry stage, the DIF
constant-geometry stage, then ``log2 m`` shift stages of decreasing
distance ``m/2, m/4, ..., 1``.  At ``m = 4`` the two CG stages coincide
and the hardware merges them; the model keeps one stage object and
accepts either CG activation.

One traversal is configured by a :class:`NetworkConfig`: at most one CG
stage active (they gather/scatter conflicting patterns) and a
:class:`~repro.automorphism.controls.ShiftControls` word for the shift
stages.  Inactive stages pass lanes straight through — the clock-gating
that the power model credits the unified design for.

The stage-by-stage mux model is the only definition of routing: the
executor, the single-pass tests of the control words and the Fig. 2
bench all send their vectors through :meth:`InterLaneNetwork.traverse`
or gather by :meth:`InterLaneNetwork.route`, and the hardware cost
model reads its stage and mux counts off the same instance.  Since a
fault-free traversal is a pure function of its configuration,
:meth:`InterLaneNetwork.route` sends the lane indices through that model
once per configuration and keeps the resulting source-index vector, so
every later traversal is one gather; under a fault hook — which may
corrupt the control word or a raw mux select of any single traversal —
the stages are walked again each time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.automorphism.controls import ShiftControls
from repro.core.stages import CgStage, ShiftStage


@lru_cache(maxsize=None)
def _identity_controls(m: int) -> ShiftControls:
    log_m = m.bit_length() - 1
    return ShiftControls(m, tuple(tuple(0 for _ in range(1 << b))
                                  for b in range(log_m)))


@dataclass(frozen=True)
class NetworkConfig:
    """Configuration of one network traversal.

    Attributes
    ----------
    cg:
        ``None`` (both CG stages inactive), ``"dit"`` or ``"dif"``.
    cg_group_size:
        Split the active CG stage into independent sub-networks of this
        size (for NTT dimensions shorter than ``m``).  ``None`` = full.
    shift:
        Control word for the shift stages; ``None`` = all inactive.
    """

    cg: str | None = None
    cg_group_size: int | None = None
    shift: ShiftControls | None = None

    def __post_init__(self) -> None:
        if self.cg not in (None, "dit", "dif"):
            raise ValueError(f"cg must be None, 'dit' or 'dif', got {self.cg}")
        if self.cg_group_size is not None and self.cg is None:
            raise ValueError("cg_group_size given without an active CG stage")


class InterLaneNetwork:
    """The unified inter-lane network on ``m`` lanes."""

    def __init__(self, m: int):
        if m < 4 or m & (m - 1):
            raise ValueError(f"m must be a power of two >= 4, got {m}")
        self.m = m
        self.merged_cg = m == 4
        self.cg_dit = CgStage(m, "dit")
        self.cg_dif = CgStage(m, "dif")
        self.shift_stages = [
            ShiftStage(m, 1 << b) for b in reversed(range(m.bit_length() - 1))
        ]
        self.passes = 0
        self._routes: dict[NetworkConfig, np.ndarray] = {}
        #: Optional fault-injection hook (guard-checked: None costs one
        #: branch per traversal and zero modeled cycles).
        self.fault_hook = None

    @property
    def cg_stages(self) -> list[CgStage]:
        """The physical CG stages: DIT and DIF, one stage at m=4."""
        return [self.cg_dit] if self.merged_cg else [self.cg_dit, self.cg_dif]

    @property
    def stage_count(self) -> int:
        """Physical stages: the CG stages + log2 m shifts."""
        return len(self.cg_stages) + len(self.shift_stages)

    @property
    def control_bit_count(self) -> int:
        """Live control bits per pass: 1 per CG stage + m-1 shift bits."""
        return len(self.cg_stages) + sum(s.control_signal_count
                                         for s in self.shift_stages)

    def route(self, config: NetworkConfig) -> np.ndarray:
        """Source lane of every output lane under ``config``.

        A fault-free traversal is ``x[route]``.  Learned once per
        configuration by sending the lane indices through the mux model
        (bijection checks included).
        """
        route = self._routes.get(config)
        if route is None:
            route = self._walk(np.arange(self.m), config, None)
            route.setflags(write=False)
            self._routes[config] = route
        return route

    def _walk(self, x: np.ndarray, config: NetworkConfig, hook) -> np.ndarray:
        """The mux model, stage by stage in Fig. 2 order."""
        out = x
        # CG stages first, at most one active.
        if config.cg == "dit":
            out = self.cg_dit.apply(out, True, config.cg_group_size)
        elif config.cg == "dif":
            out = self.cg_dif.apply(out, True, config.cg_group_size)
        # Shift stages, largest distance first.
        controls = config.shift or _identity_controls(self.m)
        if controls.m != self.m:
            raise ValueError(f"controls sized for m={controls.m}, need {self.m}")
        for index, stage in enumerate(self.shift_stages):
            b = stage.distance.bit_length() - 1
            selects = stage.selects_from_group_bits(controls.group_bits[b])
            if hook is not None:
                # Raw mux-select faults sit below the co-controlled group
                # bits and may break the routing bijection (MuxConflictError).
                selects = hook.filter_mux_selects(index, selects)
            out = stage.forward(out, selects)
        return out

    def traverse(self, x: np.ndarray, config: NetworkConfig) -> np.ndarray:
        """Send one m-element vector through the configured network."""
        x = np.asarray(x)
        if len(x) != self.m:
            raise ValueError(f"expected {self.m} lanes, got {len(x)}")
        hook = self.fault_hook
        if hook is not None:
            # Control-word faults: CG activation lines and shift group
            # bits are corrupted before they steer anything.
            out = self._walk(x, hook.filter_network_config(config, self.m),
                             hook)
        else:
            out = x[self.route(config)]
        self.passes += 1
        return out
