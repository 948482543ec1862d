"""Analytic 7 nm area/power models (paper §V, Tables II and IV).

The paper synthesizes Verilog RTL with the ASAP7 library and models SRAM
with FN-CACTI.  This package substitutes an analytic component-level
model: every datapath structure (mux stage, wire, SRAM macro, Barrett
multiplier, register file) has an area/power formula whose constants are
calibrated once against the published design points (see
``technology.py`` for the calibration provenance).  Relative comparisons
between designs then follow from structure — mux counts, stage counts,
SRAM bits, crossbar size — not from per-design fudging — and every count
is read off an instance of a model that routes, never restated here.
"""

from repro.hwmodel.components import (
    CostReport,
    barrett_multiplier_cost,
    lane_cost,
    modular_adder_cost,
    mux_stage_cost,
    register_file_cost,
)
from repro.hwmodel.network_cost import (
    multistage_network_cost,
    our_network_cost,
)
from repro.hwmodel.sram import SramMacro
from repro.hwmodel.technology import PAPER_TABLE_II, PAPER_TABLE_IV
from repro.hwmodel.vpu_cost import vpu_cost

__all__ = [
    "CostReport",
    "PAPER_TABLE_II",
    "PAPER_TABLE_IV",
    "SramMacro",
    "barrett_multiplier_cost",
    "lane_cost",
    "modular_adder_cost",
    "multistage_network_cost",
    "mux_stage_cost",
    "our_network_cost",
    "register_file_cost",
    "vpu_cost",
]
