"""``repro.kernels`` — the compiled fused-kernel backend.

The whole forward/inverse negacyclic NTT, the batched automorphism,
the fused keyswitch inner loop, the tensor product and — row-fused, no
digit tensor in between — a whole keyswitch and the top-limb division each
compile to a *single* kernel call over the full ``(L, n)`` residue matrix,
with precomputed Barrett/Shoup constant tables (hoisted onto
:class:`~repro.ntt.tables.NttTables`) and reusable per-shape workspace
buffers.  Lazy-reduction eligibility is derived from the fhecheck
interval analysis (:mod:`repro.analysis.bounds`), never hand-coded.

There is one compiled source, ``kernels.c``, built at first use with
the host C compiler and loaded via ctypes by the one module between
:class:`CompiledBackend` and C, :mod:`repro.kernels.cext`; the numpy
path is its reference and its fallback.  Which reduction schedule a
shape runs is decided once, in its :class:`CompiledPlan`, and travels
to C inside the plan; the binding takes no schedule argument and
refuses a plan no schedule is proven for.  On a host with no working
compiler :class:`CompiledBackend` degrades to the inherited
:class:`~repro.fhe.backend.NumpyBackend` path, bit-identically.

Select globally with ``REPRO_BACKEND=compiled`` (see
:mod:`repro.fhe.backend`).
"""

from repro.kernels.backend import CompiledBackend
from repro.kernels.cext import resolve_provider
from repro.kernels.plan import (
    CompiledPlan,
    clear_compiled_caches,
    get_plan,
    plan_cache,
)

__all__ = [
    "CompiledBackend",
    "CompiledPlan",
    "clear_compiled_caches",
    "get_plan",
    "plan_cache",
    "resolve_provider",
]
