"""The kernel contract: three kernels every backend has, five optional slots."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class KernelBackend(Protocol):
    """Three limb-batched kernels over the ``(L, n)`` residue matrix of
    a double-CRT polynomial, row ``i`` modulo ``primes[i]`` (the paper's
    batch shape — a keyswitch is "per digit, a batch of NTTs", §II-A).
    A single polynomial row is the ``L = 1`` batch.

    Five further methods are optional and probed with ``getattr``.
    Four are fused kernels of :class:`repro.kernels.CompiledBackend`.
    An :class:`IntegrityBackend` around one hands out all four under
    ``OFF``; under a checking policy it hands out its own *checked*
    ``keyswitch_apply`` / ``drop_top_limb`` (same signature; the kernel
    takes the ABFT sums of its row NTTs and accumulators through the
    wrapped slot's ``check=`` argument and the checker judges them — the
    row NTTs once per call, the accumulators and any Galois table per
    key block) — at ladder level 0 and without a ``dram`` / ``sram``
    staging model — never the unchecked ones, and not
    ``keyswitch_inner_product`` or ``tensor_product``, so a phased
    accumulate then runs its numpy loop and the tensor product as
    ``RnsPoly`` arithmetic:

    * ``keyswitch_apply(residues, primes, key_blocks, keep,
      galois=None)`` — ``G`` whole keyswitches of one polynomial
      (inverse NTTs, digit lifts, forward NTTs, multiply-accumulate
      against ``KeySwitchKey`` blocks read in place), every digit row
      transformed once: of the polynomial itself under each block
      (``galois`` None; ``apply_keyswitch`` is ``G = 1``), or of its
      Galois images ``X -> X^galois[g]`` (rotations) — as two
      ``(G, L + 1, n)`` stacks, or ``None`` ("not taken") when a gate
      refuses — or a check failed under a replaying policy — and the
      caller must run the phases;
    * ``drop_top_limb(residues, primes, inv_table)`` — the rounded
      division by the top limb behind ``rescale`` and the CKKS
      ``mod_down`` (``R`` row NTTs), or ``None`` likewise;
    * ``keyswitch_inner_product(digit_stack, b_stack, a_stack,
      primes)`` — the multiply-accumulate alone, over digits that are
      already transformed (the phased path), or ``None`` likewise;
    * ``tensor_product(a0, a1, b0, b1, primes)`` — the three parts
      ``(a0 b0, a0 b1 + a1 b0, a1 b1)`` of an unrelinearized product in
      one pass over the operands, or ``None`` likewise.

    The fifth is the spare-modulus ``check_keyswitch_accumulation(
    acc0, acc1, digits, ksk, keep)``, one verdict per accumulator (an
    :class:`IntegrityBackend` under any checking policy; the phased
    keyswitch calls it).
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
