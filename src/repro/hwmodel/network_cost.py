"""Cost model of the paper's unified inter-lane network (Tables II/IV).

The network (Fig. 2) comprises two constant-geometry stages — merged into
one when ``m = 4``, where DIT and DIF coincide — plus ``log2 m`` shift
stages.  Each stage is ``m`` word-wide 2:1 muxes; the unit additionally
pays a per-lane attach overhead (butterfly-pair links, control decode)
and holds the pre-generated automorphism control table
(``(m/2)(m-1)`` bits, ~2 kbit at m = 64 — paper §IV-B) whose area is
priced through the SRAM model (it is negligible, as the paper notes).
"""

from __future__ import annotations

from repro.automorphism.controls import control_table_size_bits
from repro.hwmodel import technology as tech
from repro.hwmodel.components import (
    CostReport,
    lane_attach_overhead,
    mux_stage_cost,
    network_control_cost,
)
from repro.hwmodel.sram import SramMacro


def check_lane_count(m: int) -> None:
    """Refuse a lane count the mux networks cannot be built for."""
    if m <= 1 or m & (m - 1):
        raise ValueError(f"m must be a power of two > 1, got {m}")


def cg_stage_count(m: int) -> int:
    """Number of constant-geometry stages: 2, merged to 1 when m = 4."""
    if m < 4:
        return 1
    return 1 if m == 4 else 2


def shift_stage_count(m: int) -> int:
    """Number of shift stages: log2 m (distances m/2 ... 1)."""
    return m.bit_length() - 1


def multistage_network_cost(
    m: int,
    stages: int,
    bits: int = tech.WORD_BITS,
    units: int = 1,
    activity: float = 1.0,
) -> CostReport:
    """Generic mux-based multi-stage network unit.

    ``units`` counts physically separate networks (each pays its own
    lane-attach overhead and control); ``activity`` scales switching
    power for designs without our per-stage clock gating.
    """
    check_lane_count(m)
    if stages <= 0 or units <= 0:
        raise ValueError("stages and units must be positive")
    total = (mux_stage_cost(m, bits) * stages
             + lane_attach_overhead(m) * units
             + network_control_cost() * units)
    return total.scaled_power(activity)


def our_network_cost(m: int, bits: int = tech.WORD_BITS) -> CostReport:
    """The unified inter-lane network (the paper's design).

    The pre-generated automorphism control table lives in the VPU too,
    but at ``(m/2)(m-1)`` bits (~2 kbit at m = 64) it is absorbed by the
    calibrated per-lane overhead, exactly as the paper calls it "a small
    area cost"; :func:`control_table_cost` prices it standalone for the
    ablation benchmarks.
    """
    stages = cg_stage_count(m) + shift_stage_count(m)
    base = multistage_network_cost(m, stages, bits)
    return CostReport(base.area_um2, base.power_mw,
                      f"unified inter-lane network (m={m})")


def twiddle_storage_cost(n: int, m: int,
                         bits: int = tech.WORD_BITS) -> CostReport:
    """Twiddle-factor SRAM for running length-``n`` NTTs on the VPU.

    All stage twiddles of one (N, q) pair are powers of a single root;
    storing the ``n`` distinct powers (streamed a row of ``m/2`` per
    butterfly cycle) is the standard layout.  Not part of the paper's
    network comparison — every design needs twiddles — but reported by
    the implementation-detail breakdowns.
    """
    if n <= 0 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    macro = SramMacro(
        bits=n * bits,
        io_bits=(m // 2) * bits,
        ports=1,
        duty=0.8,  # one twiddle row per butterfly cycle
        label=f"twiddle SRAM (N={n})",
    )
    return macro.cost()


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
