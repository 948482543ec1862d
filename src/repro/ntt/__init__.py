"""Number-theoretic transform algorithms.

Layered from "obviously correct" to "hardware shaped":

* :mod:`repro.ntt.reference` — naive O(N²) transforms, the golden model
  (the oracle of the VPU's wide primes).
* :mod:`repro.ntt.cooley_tukey` — iterative DIT/DIF O(N log N) transforms
  (the scalar oracles, the vectorized numpy paths and the limb-batched
  lazy stage kernels).
* :mod:`repro.ntt.constant_geometry` — the Pease constant-geometry
  permutations and stage-twiddle exponents: every stage uses the
  identical inter-element permutation, which is what the VPU's CG
  network stages implement (paper §III-B) and what
  :mod:`repro.mapping.ntt` compiles.
* :mod:`repro.ntt.negacyclic` — wrappers for the CKKS ring
  ``Z_q[X]/(X^n+1)`` plus NTT-based polynomial multiplication, and the
  limb-batched plan every host backend walks.
* :mod:`repro.ntt.decomposition` — how a large NTT splits into
  hardware-sized dimensions (paper §II-B); the VPU's schedule for them
  lives in :mod:`repro.mapping.ntt`.
* :mod:`repro.ntt.tables` — precomputed twiddle-factor tables shared by all
  of the above.
"""

from repro.ntt.bitrev import bit_reverse, bit_reverse_indices, bit_reverse_permute
from repro.ntt.constant_geometry import (
    dif_gather_permutation,
    dit_scatter_permutation,
)
from repro.ntt.cooley_tukey import (
    intt_dit,
    ntt_dif,
    vec_intt_dit,
    vec_ntt_dif,
)
from repro.ntt.decomposition import choose_dimensions
from repro.ntt.negacyclic import NegacyclicNtt, negacyclic_poly_mul
from repro.ntt.reference import naive_intt, naive_negacyclic_poly_mul, naive_ntt
from repro.ntt.tables import NttTables

__all__ = [
    "NegacyclicNtt",
    "NttTables",
    "bit_reverse",
    "bit_reverse_indices",
    "bit_reverse_permute",
    "choose_dimensions",
    "dif_gather_permutation",
    "dit_scatter_permutation",
    "intt_dit",
    "naive_intt",
    "naive_negacyclic_poly_mul",
    "naive_ntt",
    "negacyclic_poly_mul",
    "ntt_dif",
    "vec_intt_dit",
    "vec_ntt_dif",
]
