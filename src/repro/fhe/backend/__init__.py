"""Pluggable kernel backends for the FHE layer.

Every polynomial-level kernel the accelerator cares about — forward and
inverse negacyclic NTTs and evaluation-domain automorphisms — funnels
through the active backend, an implementation of the three-method
:class:`KernelBackend` protocol over the full ``(L, n)`` residue matrix
of a double-CRT polynomial (one row is the ``L = 1`` batch):

* :class:`NumpyBackend` — the fast vectorized golden path: a batch is
  one stacked transform.
* :class:`repro.kernels.CompiledBackend` — fused kernels from one
  runtime-compiled C source, bit-identical to the numpy path and
  falling back to it where the C provider or a gate is missing.
* :class:`VpuBackend` — the behavioral VPU model: a batch replays one
  cached compiled ISA program on every limb, each unit's share of the
  limbs in one lock-step pass, so a whole CKKS workload runs "on the
  hardware", bit-for-bit equal to the numpy path.
* :class:`IntegrityBackend` — any of the above behind the ABFT runtime
  integrity layer (:mod:`repro.fault`): O(n) checksums after every
  kernel, bounded replay, program quarantine, and degradation down
  :func:`ladder_backend` to the golden per-row path.

Swap with :func:`set_backend`, or temporarily with :func:`use_backend`;
the process default honors ``REPRO_BACKEND=numpy|compiled|vpu``
(:func:`backend_from_env`).  Backends carry no instrumentation: while a
:mod:`repro.obs` hook is installed, :func:`get_backend` and
:func:`use_backend` hand the active one out behind an
:class:`~repro.fhe.backend.observed.ObservedBackend`.
"""

from __future__ import annotations

import os
import sys
import warnings
from contextlib import contextmanager

from repro import obs
from repro.fhe.backend.integrity import IntegrityBackend
from repro.fhe.backend.numpy_backend import NumpyBackend, ladder_backend
from repro.fhe.backend.observed import ObservedBackend, observed
from repro.fhe.backend.protocol import KernelBackend
from repro.fhe.backend.vpu_backend import ProgramQuarantinedError, VpuBackend
from repro.ntt.negacyclic import plan_cache

__all__ = [
    "IntegrityBackend",
    "KernelBackend",
    "NumpyBackend",
    "ObservedBackend",
    "ProgramQuarantinedError",
    "VpuBackend",
    "backend_from_env",
    "clear_caches",
    "get_backend",
    "ladder_backend",
    "observed",
    "set_backend",
    "use_backend",
]


def backend_from_env(default: str = "numpy"):
    """Construct the backend ``REPRO_BACKEND`` selects (``numpy`` |
    ``compiled`` | ``vpu``); ``default`` applies when unset or empty.
    Raises :class:`ValueError` on an unknown name."""
    name = os.environ.get("REPRO_BACKEND", default).strip().lower() or default
    if name == "numpy":
        return NumpyBackend()
    if name == "compiled":
        from repro.kernels import CompiledBackend

        return CompiledBackend()
    if name == "vpu":
        return VpuBackend()
    raise ValueError(
        f"unknown REPRO_BACKEND {name!r} (expected numpy, compiled or vpu)")


#: The installed backend; None until the first :func:`get_backend` /
#: :func:`use_backend` resolves ``REPRO_BACKEND`` — not at import, so
#: :mod:`repro.kernels` (which imports this package) can be imported
#: first under ``REPRO_BACKEND=compiled``.
_ACTIVE: KernelBackend | None = None


def _active() -> KernelBackend:
    global _ACTIVE
    if _ACTIVE is None:
        try:
            _ACTIVE = backend_from_env()
        except ValueError as exc:
            # A typo in the environment must not break every FHE call —
            # warn and run on the default path.
            warnings.warn(f"{exc}; falling back to NumpyBackend",
                          RuntimeWarning, stacklevel=3)
            _ACTIVE = NumpyBackend()
    return _ACTIVE


def get_backend() -> KernelBackend:
    """The backend all FHE polynomial kernels currently use (observed
    while an obs hook is installed)."""
    return observed(_active())


def clear_caches() -> None:
    """Drop every kernel-level cache: the batch plans every host backend
    reads (:func:`repro.ntt.negacyclic.plan_cache`, counters too), the
    compiled kernels' workspaces and Galois tables (:mod:`repro.kernels`,
    when loaded), and the active backend's compiled programs and quarantines
    (for an :class:`IntegrityBackend` also its checker's weight tables
    and key spare images).
    Fault campaigns and tests call this between runs so poisoned state
    cannot leak across experiments.  (Twiddle tables stay cached: they
    are pure functions of ``(n, q)`` that no injection site ever writes.)

    With a live metrics registry the gauges of both program caches are
    zeroed as well — a snapshot taken after a reset must not report the
    dropped caches' stale counters, even when the backend that published
    them is no longer the active one — and the telemetry ring is dropped
    (windowed deltas across a reset would be nonsense)."""
    plan_cache().clear()
    kernels = sys.modules.get("repro.kernels.backend")
    if kernels is not None:
        kernels.clear_compiled_caches()
    clearer = getattr(get_backend(), "clear_caches", None)
    if clearer is not None:
        clearer()
    obs.zero_gauges("backend.program_cache.")
    obs.zero_gauges("backend.compiled_plan_cache.")
    obs.reset_telemetry()


def set_backend(backend: KernelBackend) -> None:
    """Install a kernel backend globally."""
    global _ACTIVE
    _ACTIVE = backend


@contextmanager
def use_backend(backend: KernelBackend):
    """Temporarily install a backend (restores the previous on exit)."""
    global _ACTIVE
    previous = _active()
    _ACTIVE = backend
    try:
        yield get_backend()
    finally:
        _ACTIVE = previous
