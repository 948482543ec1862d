"""The kernel contract every backend implements."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class KernelBackend(Protocol):
    """Three limb-batched kernels over the ``(L, n)`` residue matrix of
    a double-CRT polynomial, row ``i`` modulo ``primes[i]`` (the paper's
    batch shape — a keyswitch is "per digit, a batch of NTTs", §II-A).
    A single polynomial row is the ``L = 1`` batch.

    Two further methods are optional and probed with ``getattr``: the
    fused ``keyswitch_inner_product(digit_stack, b_stack, a_stack,
    primes)`` (:class:`repro.kernels.CompiledBackend`, and an
    :class:`IntegrityBackend` under ``OFF`` around one) and the
    spare-modulus ``check_keyswitch_accumulation(acc0, acc1, digits,
    ksk, keep)``, one verdict per accumulator (an
    :class:`IntegrityBackend` under any checking policy).
    """

    def forward_ntt_batch(self, residues: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        """Negacyclic coefficients -> natural-order evaluation values."""
        ...

    def inverse_ntt_batch(self, values: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        """Natural-order evaluation values -> coefficients."""
        ...

    def automorphism_eval_batch(self, values: np.ndarray, galois_k: int,
                                primes: tuple[int, ...]) -> np.ndarray:
        """The Galois action ``X -> X^k`` in the evaluation domain."""
        ...
