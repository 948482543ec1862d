"""RNS-CKKS fully homomorphic encryption.

The FHE workload that motivates the paper's accelerator (§II-A): each
ciphertext is two polynomials of degree ``N`` whose coefficients live in
a residue number system over NTT-friendly primes ("double-CRT"), so
every homomorphic operation reduces to exactly the kernels the VPU
accelerates — element-wise modular arithmetic, NTTs, and automorphisms.

Modules:

* :mod:`repro.fhe.params` — parameter presets (ring degree, modulus
  chain, scale).
* :mod:`repro.fhe.rns` — the RNS basis with CRT idempotents used by the
  digit-decomposition keyswitch.
* :mod:`repro.fhe.polynomial` — double-CRT polynomials.
* :mod:`repro.fhe.sampling` — ternary/Gaussian/uniform samplers.
* :mod:`repro.fhe.encoding` — the canonical-embedding encoder and the
  exact integer batch encoder, both on the power-of-5 slot ordering that
  makes HRot a cyclic slot rotation.
* :mod:`repro.fhe.keyswitch` — RNS digit-decomposition keyswitching with
  one special prime.
* :mod:`repro.fhe.rlwe` — the RLWE core all three schemes subclass:
  keygen, public-key encryption, the secret phase and the relin / Galois
  keyswitch folds, written once.
* :mod:`repro.fhe.ckks` — the CKKS layer on it: encoder, scale
  management, and the evaluator (HAdd/HSub/HMult/HRot/conjugate/rescale).
* :mod:`repro.fhe.bgv` / :mod:`repro.fhe.bfv` — the BGV and BFV layers
  (exact integer slots) on the same core, as §II-A anticipates.
* :mod:`repro.fhe.linear` — homomorphic matrix-vector products
  (diagonal and baby-step/giant-step methods).
* :mod:`repro.fhe.polyeval` — homomorphic polynomial evaluation
  (Horner and Paterson-Stockmeyer).
* :mod:`repro.fhe.noise` — noise measurement and budget estimation.
* :mod:`repro.fhe.program` — the ring-program IR: ``Op``, the op table,
  program digests/liveness, and the one (verdict-taking) executor.
* :mod:`repro.fhe.serialize` — key/ciphertext persistence.
* :mod:`repro.fhe.backend` — pluggable kernel backends, including the
  one that routes NTTs and automorphisms through the VPU model.
"""

from repro.fhe.bfv import BfvCiphertext, BfvContext
from repro.fhe.bgv import BgvCiphertext, BgvContext, BgvParams
from repro.fhe.ckks import CkksContext, Ciphertext
from repro.fhe.encoding import CkksEncoder
from repro.fhe.params import CkksParams
from repro.fhe.polynomial import RnsPoly
from repro.fhe.rns import RnsBasis

__all__ = [
    "BfvCiphertext",
    "BfvContext",
    "BgvCiphertext",
    "BgvContext",
    "BgvParams",
    "Ciphertext",
    "CkksContext",
    "CkksEncoder",
    "CkksParams",
    "RnsBasis",
    "RnsPoly",
]
