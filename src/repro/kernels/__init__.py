"""``repro.kernels`` — the compiled fused-kernel backend.

The whole forward/inverse negacyclic NTT, the batched automorphism,
the fused keyswitch inner loop, the tensor product and — row-fused, no
digit tensor in between — a whole keyswitch and the top-limb division each
compile to a *single* kernel call over the full ``(L, n)`` residue matrix,
with precomputed Shoup constant tables and reusable per-shape
workspace buffers.

There is one compiled source, ``kernels.c``, built at first use with
the host C compiler and loaded via ctypes by the one module between
:class:`CompiledBackend` and C, :mod:`repro.kernels.cext`; the numpy
path is its reference and its fallback.  Both read one batch plan per
``(n, primes)`` shape,
:class:`~repro.ntt.negacyclic.BatchedNegacyclicNtt`, from one cache
(:func:`plan_cache`, with hit/miss counters): its stacked constant
tables, and the reduction schedule it resolves once from the fhecheck
interval analysis (:mod:`repro.analysis.bounds`), never hand-coded.
The schedule travels to C inside the plan; the binding takes no
schedule argument.  On a host with no working compiler
:class:`CompiledBackend` degrades to the inherited
:class:`~repro.fhe.backend.NumpyBackend` path, bit-identically.

Select globally with ``REPRO_BACKEND=compiled`` (see
:mod:`repro.fhe.backend`).
"""

from repro.kernels.backend import CompiledBackend, clear_compiled_caches
from repro.kernels.cext import resolve_provider
from repro.ntt.negacyclic import plan_cache

__all__ = [
    "CompiledBackend",
    "clear_compiled_caches",
    "plan_cache",
    "resolve_provider",
]
