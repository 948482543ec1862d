"""Compilers from FHE kernel operations to VPU programs (paper §IV).

* :mod:`repro.mapping.transpose` — dimension transposes on the shift
  network via the two-pass diagonal method of Fig. 3(a).
* :mod:`repro.mapping.ntt` — multi-dimensional NTT/iNTT compilation:
  constant-geometry small NTTs (grouped mode for short dimensions),
  inter-dimension twiddles, and transposes, streamed tile-by-tile
  through the register file.
* :mod:`repro.mapping.automorphism` — full-length automorphism mapping:
  column decomposition with merged single-pass network controls
  (every element crosses the network exactly once).
* :mod:`repro.mapping.reduction` — cross-lane reductions for
  matrix/tensor products using uniform shift passes (§III-A).
"""

from repro.mapping.automorphism import (
    automorphism_layout_pack,
    automorphism_layout_unpack,
    compile_automorphism,
)
from repro.mapping.ntt import (
    NttMappingError,
    compile_grouped_intt,
    compile_grouped_ntt,
    compile_intt,
    compile_ntt,
    compile_small_intt,
    compile_small_ntt,
    pack_for_ntt,
    pack_ntt_values,
    required_registers,
    unpack_ntt_result,
)
from repro.mapping.reduction import compile_reduction
from repro.mapping.transpose import compile_tile_transpose

__all__ = [
    "NttMappingError",
    "automorphism_layout_pack",
    "automorphism_layout_unpack",
    "compile_automorphism",
    "compile_grouped_intt",
    "compile_grouped_ntt",
    "compile_intt",
    "compile_ntt",
    "compile_reduction",
    "compile_small_intt",
    "compile_small_ntt",
    "compile_tile_transpose",
    "pack_for_ntt",
    "pack_ntt_values",
    "required_registers",
    "unpack_ntt_result",
]
