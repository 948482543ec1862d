"""Human-readable cost breakdowns.

Rendering helpers that decompose a design's area/power into its
structural components — the tables a hardware paper's "implementation
details" section would show, generated from the same models that
reproduce Tables II/IV.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hwmodel import technology as tech
from repro.hwmodel.components import (
    CostReport,
    barrett_multiplier_cost,
    modular_adder_cost,
    register_file_cost,
)
from repro.hwmodel.network_cost import control_table_cost, our_network_parts


@dataclass(frozen=True)
class BreakdownLine:
    """One component row of a breakdown table."""

    name: str
    count: int
    cost: CostReport

    @property
    def area_um2(self) -> float:
        return self.cost.area_um2

    @property
    def power_mw(self) -> float:
        return self.cost.power_mw


def network_breakdown(m: int, bits: int = tech.WORD_BITS) -> list[BreakdownLine]:
    """Component-by-component split of the unified inter-lane network.

    The parts :func:`~repro.hwmodel.our_network_cost` sums, plus the
    control table.
    """
    lines = [BreakdownLine(*part) for part in our_network_parts(m, bits)]
    lines.append(BreakdownLine("automorphism control table", 1,
                               control_table_cost(m)))
    return lines


def vpu_breakdown(m: int, bits: int = tech.WORD_BITS,
                  regfile_entries: int = tech.REGFILE_DEFAULT_ENTRIES
                  ) -> list[BreakdownLine]:
    """Component split of the whole VPU (lanes + network)."""
    network = network_breakdown(m, bits)
    lines = [
        BreakdownLine("Barrett modular multipliers", m,
                      barrett_multiplier_cost(bits) * m),
        BreakdownLine("modular adders/subtractors", m,
                      modular_adder_cost(bits) * m),
        BreakdownLine("register files (2R1W)", m,
                      register_file_cost(regfile_entries, bits) * m),
    ]
    total_net = CostReport(0.0, 0.0)
    for line in network:
        total_net = total_net + line.cost
    lines.append(BreakdownLine("inter-lane network (all stages)", 1,
                               total_net))
    return lines


def render_breakdown(lines: list[BreakdownLine], title: str = "") -> str:
    """Format a breakdown as an aligned text table with a total row."""
    total_area = sum(line.area_um2 for line in lines)
    total_power = sum(line.power_mw for line in lines)
    rows = [f"{title}".rstrip(),
            f"{'component':38s} {'count':>5s} {'area um^2':>12s} "
            f"{'%':>6s} {'power mW':>9s} {'%':>6s}"]
    for line in lines:
        rows.append(
            f"{line.name:38s} {line.count:5d} {line.area_um2:12.2f} "
            f"{100 * line.area_um2 / total_area:5.1f}% "
            f"{line.power_mw:9.3f} {100 * line.power_mw / total_power:5.1f}%"
        )
    rows.append(f"{'total':38s} {'':5s} {total_area:12.2f} {'':6s} "
                f"{total_power:9.3f}")
    return "\n".join(r for r in rows if r)
