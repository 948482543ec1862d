"""The unified vector processing unit (paper §III).

* :mod:`repro.core.stages` — the individual network stages at MUX level:
  two constant-geometry stages (DIT and DIF) and the log₂ m shift stages.
* :mod:`repro.core.network` — the full inter-lane network (Fig. 2) with
  its per-pass configuration, including grouped CG mode for short NTT
  dimensions.
* :mod:`repro.core.register_file` — the per-lane 2R1W register file.
* :mod:`repro.core.isa` — the vector instruction set: element-wise
  modular ops, paired-lane DIT/DIF butterflies, network passes, loads
  and stores.
* :mod:`repro.core.vpu` — the cycle-counting executor binding m lanes of
  Barrett arithmetic to the network.
"""

from repro.core.isa import (
    Butterfly,
    Instruction,
    Load,
    NetworkPass,
    NttStage,
    Program,
    Store,
    VAdd,
    VMul,
    VMulScalar,
    VMulTwiddle,
    VSub,
)
from repro.core.network import InterLaneNetwork, NetworkConfig
from repro.core.register_file import RegisterFile
from repro.core.stages import CgStage, ShiftStage
from repro.core.vpu import VectorMemory, VectorProcessingUnit, bind_table

__all__ = [
    "Butterfly",
    "CgStage",
    "Instruction",
    "InterLaneNetwork",
    "Load",
    "NetworkConfig",
    "NetworkPass",
    "NttStage",
    "Program",
    "RegisterFile",
    "ShiftStage",
    "Store",
    "VAdd",
    "VMul",
    "VMulScalar",
    "VMulTwiddle",
    "VSub",
    "VectorMemory",
    "VectorProcessingUnit",
    "bind_table",
]
