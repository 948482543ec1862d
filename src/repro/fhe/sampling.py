"""Random samplers for RLWE key material and noise.

* ternary secrets (coefficients in {-1, 0, 1}),
* centered discrete Gaussian errors (sigma ~ 3.2, the standard choice),
* uniform ring elements for the public randomness.

All samplers take an explicit :class:`numpy.random.Generator` so tests
are reproducible; none of this is meant to be side-channel hardened.
"""

from __future__ import annotations

import numpy as np

from repro.fhe.polynomial import RnsPoly


def sample_ternary(n: int, rng: np.random.Generator,
                   hamming_weight: int | None = None) -> np.ndarray:
    """Ternary secret coefficients in {-1, 0, 1} (int64).

    With ``hamming_weight`` set, exactly that many coefficients are
    nonzero (the sparse-secret variant common in CKKS deployments).
    """
    if hamming_weight is None:
        return rng.integers(-1, 2, size=n).astype(np.int64)
    if not 0 < hamming_weight <= n:
        raise ValueError(f"hamming weight {hamming_weight} out of range")
    coeffs = np.zeros(n, dtype=np.int64)
    support = rng.choice(n, size=hamming_weight, replace=False)
    coeffs[support] = rng.choice([-1, 1], size=hamming_weight)
    return coeffs


def sample_gaussian(n: int, std: float, rng: np.random.Generator) -> np.ndarray:
    """Centered discrete Gaussian (rounded normal) coefficients."""
    if std <= 0:
        raise ValueError(f"std must be positive, got {std}")
    # Rounded Gaussian: |x| ~ 6*std << 2**63.
    return np.rint(rng.normal(0.0, std, size=n)).astype(np.int64)


def sample_uniform_poly(n: int, primes: tuple[int, ...],
                        rng: np.random.Generator) -> RnsPoly:
    """A uniformly random ring element, directly in RNS eval form.

    Sampling each limb independently and uniformly is exactly uniform
    over the composite modulus by CRT.
    """
    rows = np.stack([
        rng.integers(0, q, size=n, dtype=np.uint64) for q in primes
    ])
    return RnsPoly(rows, primes, is_eval=True)
