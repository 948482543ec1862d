"""Cost model of the paper's unified inter-lane network (Tables II/IV).

The network (Fig. 2) comprises two constant-geometry stages — merged into
one when ``m = 4``, where DIT and DIF coincide — plus ``log2 m`` shift
stages, counted on :class:`repro.core.network.InterLaneNetwork`, the
model that routes.  Each stage is ``m`` word-wide 2:1 muxes; the unit
additionally pays a per-lane attach overhead (butterfly-pair links,
control decode) and holds the pre-generated automorphism control table
(``(m/2)(m-1)`` bits, ~2 kbit at m = 64 — paper §IV-B) whose area is
priced through the SRAM model (it is negligible, as the paper notes).
"""

from __future__ import annotations

from repro.automorphism.controls import control_table_size_bits
from repro.core.network import InterLaneNetwork
from repro.hwmodel import technology as tech
from repro.hwmodel.components import (
    CostReport,
    lane_attach_overhead,
    mux_stage_cost,
    network_control_cost,
)
from repro.hwmodel.sram import SramMacro


def multistage_network_cost(m: int, stages: int, bits: int = tech.WORD_BITS,
                            activity: float = 1.0) -> CostReport:
    """Generic mux-based multi-stage network unit.

    ``stages`` mux rows plus the unit's own lane attachment and control;
    ``activity`` scales switching power for designs without our
    per-stage clock gating.
    """
    if m < 2 or m & (m - 1) or stages <= 0:
        raise ValueError(f"need a power-of-two m and stages > 0, "
                         f"got m={m}, stages={stages}")
    total = (mux_stage_cost(m, bits) * stages + lane_attach_overhead(m)
             + network_control_cost())
    return total.scaled_power(activity)


def our_network_parts(m: int, bits: int = tech.WORD_BITS
                      ) -> list[tuple[str, int, CostReport]]:
    """The unified network part by part, as ``(name, count, cost)`` rows.

    The stages are counted on the routing model, :class:`InterLaneNetwork`.
    """
    net = InterLaneNetwork(m)
    mux = mux_stage_cost(m, bits)
    cg, shifts = len(net.cg_stages), len(net.shift_stages)
    return [
        ("CG stages (DIT/DIF)", cg, mux * cg),
        ("shift stages", shifts, mux * shifts),
        ("lane attach (pair links, drivers)", 1, lane_attach_overhead(m)),
        ("control sequencing", 1, network_control_cost()),
    ]


def our_network_cost(m: int, bits: int = tech.WORD_BITS) -> CostReport:
    """The unified inter-lane network (the paper's design).

    The pre-generated automorphism control table lives in the VPU too,
    but at ``(m/2)(m-1)`` bits (~2 kbit at m = 64) it is absorbed by the
    calibrated per-lane overhead, exactly as the paper calls it "a small
    area cost"; :func:`control_table_cost` prices it standalone for the
    breakdown and the ablation benchmarks.
    """
    total = sum((cost for _, _, cost in our_network_parts(m, bits)),
                CostReport(0.0, 0.0))
    return CostReport(total.area_um2, total.power_mw,
                      f"unified inter-lane network (m={m})")


def control_table_cost(m: int) -> CostReport:
    """Standalone price of the automorphism control-signal SRAM table."""
    macro = SramMacro(
        bits=max(control_table_size_bits(m), 1),
        io_bits=max(m - 1, 1),
        ports=1,
        duty=0.02,  # one table read per automorphism setup, not per cycle
        label="automorphism control table",
    )
    return macro.cost()
