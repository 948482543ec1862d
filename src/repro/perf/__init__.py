"""Performance models: throughput utilization of the VPU (Table III).

* :mod:`repro.perf.cycles` — analytic cycle accounting for NTT and
  automorphism programs, validated instruction-for-instruction against
  the executable compilers at sizes the VPU model can run.
* :mod:`repro.perf.utilization` — the Table III reproduction: throughput
  utilization over N = 2^10 .. 2^20, plus baseline pass-count
  comparisons.
"""

from repro.perf.cycles import (
    CycleReport,
    automorphism_cycle_model,
    ntt_cycle_model,
)
from repro.perf.utilization import (
    PAPER_TABLE_III,
    table3_rows,
    utilization_report,
)

__all__ = [
    "CycleReport",
    "PAPER_TABLE_III",
    "automorphism_cycle_model",
    "ntt_cycle_model",
    "table3_rows",
    "utilization_report",
]
