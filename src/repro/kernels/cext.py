"""Runtime-compiled C provider (``cc`` + ctypes).

Builds ``kernels.c`` with the host C toolchain at first use and loads
it through ctypes — no build system, no install step, no hard
dependency: :func:`load_provider` returns ``None`` whenever a working
compiler is missing and the backend degrades to numpy.

The shared object is cached on disk keyed by the source hash (under
``$REPRO_KERNEL_CACHE`` or the system temp directory), so the one-time
compile cost (~a second) is paid once per source revision per machine,
not per process.  ``-fopenmp`` is attempted first for per-limb
parallelism — the rows of every kernel are independent, so threading is
deterministic — with a serial fallback when the toolchain lacks it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("kernels.c")
_VOID = ctypes.c_void_p
_I64 = ctypes.c_int64
_INT = ctypes.c_int


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    tag = os.environ.get("USER") or os.environ.get("USERNAME") or "shared"
    return Path(tempfile.gettempdir()) / f"repro-kernels-{tag}"


def _build(source: Path, cache: Path) -> Path | None:
    """Compile the kernel source into the hash-keyed cache; returns the
    shared-object path, or None when no toolchain invocation succeeds."""
    digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    lib = cache / f"repro_kernels_{digest}.so"
    if lib.exists():
        return lib
    cache.mkdir(parents=True, exist_ok=True)
    cc = os.environ.get("CC", "cc")
    tmp = lib.with_name(f"{lib.name}.tmp{os.getpid()}")
    for extra in (["-fopenmp"], []):
        cmd = [cc, "-O3", "-fPIC", "-shared", "-std=c11", *extra,
               str(source), "-o", str(tmp)]
        try:
            proc = subprocess.run(cmd, capture_output=True, timeout=300)
        except (OSError, subprocess.SubprocessError):
            return None
        if proc.returncode == 0:
            os.replace(tmp, lib)
            return lib
    return None


def _addr(arr: np.ndarray) -> int:
    return arr.ctypes.data


class PlanTables(ctypes.Structure):
    """ctypes mirror of ``plan_t`` in ``kernels.c``: the addresses of
    one :class:`~repro.kernels.plan.CompiledPlan`'s constant tables."""

    _fields_ = [(name, _VOID) for name in (
        "q", "mu", "psi", "psi_sh", "twf", "twf_sh", "twi", "twi_sh",
        "unfold", "unfold_sh", "bitrev")]


def _tables(plan) -> PlanTables:
    """The plan's table addresses, built once and kept on the plan
    (which owns the arrays, so the addresses live as long as it does)."""
    tables = getattr(plan, "ctables", None)
    if tables is None:
        tables = plan.ctables = PlanTables(
            *(_addr(getattr(plan, name)) for name, _ in PlanTables._fields_))
    return tables


_PLAN = ctypes.POINTER(PlanTables)


class CExtProvider:
    """ctypes facade over the compiled ``kernels.c`` entry points.

    Arrays handed in must be C-contiguous uint64 (int64 for index
    tables and ticks) — the plan builder and the backend guarantee
    that — so each call is a handful of pointer loads and one foreign
    call, no marshalling.
    """

    name = "cext"

    def __init__(self, lib: ctypes.CDLL):
        def entry(symbol: str, *argtypes):
            fn = getattr(lib, symbol)
            fn.restype = None
            fn.argtypes = list(argtypes)
            return fn

        self._fwd = entry("repro_fwd_ntt_batch", _PLAN, _VOID, _VOID, _VOID,
                          _I64, _I64, _INT)
        self._inv = entry("repro_inv_ntt_batch", _PLAN, _VOID, _VOID, _VOID,
                          _I64, _I64, _INT)
        self._auto = entry("repro_auto_batch", _VOID, _VOID, _I64, _I64,
                           _VOID)
        self._ks = entry("repro_ks_accum", _VOID, _VOID, _VOID, _I64,
                         _VOID, _VOID, _I64, _I64, _I64, _VOID, _VOID, _INT)
        self._ks_apply = entry("repro_ks_apply", _PLAN, _VOID, _VOID, _VOID,
                               _VOID, _VOID, _VOID, _VOID, _I64, _I64, _I64,
                               _INT, _INT, _INT, _VOID)
        self._drop_top = entry("repro_drop_top_limb", _PLAN, _VOID, _VOID,
                               _VOID, _VOID, _VOID, _I64, _I64, _INT, _INT)

    def fwd_ntt(self, plan, x: np.ndarray, out: np.ndarray,
                work: np.ndarray, use_shoup: bool) -> None:
        rows, n = x.shape
        self._fwd(_tables(plan), _addr(x), _addr(out), _addr(work), rows, n,
                  1 if use_shoup else 0)

    def inv_ntt(self, plan, x: np.ndarray, out: np.ndarray,
                work: np.ndarray, mode: int) -> None:
        rows, n = x.shape
        self._inv(_tables(plan), _addr(x), _addr(out), _addr(work), rows, n,
                  mode)

    def auto(self, x: np.ndarray, out: np.ndarray,
             dest: np.ndarray) -> None:
        rows, n = x.shape
        self._auto(_addr(x), _addr(out), rows, n, _addr(dest))

    def ks_accum(self, digits: np.ndarray, bstack: np.ndarray,
                 astack: np.ndarray, key_stride: int, acc0: np.ndarray,
                 acc1: np.ndarray, q_arr: np.ndarray, mu_arr: np.ndarray,
                 lazy: bool) -> None:
        num_digits, rows, n = digits.shape
        self._ks(_addr(digits), _addr(bstack), _addr(astack), key_stride,
                 _addr(acc0), _addr(acc1), num_digits, rows, n,
                 _addr(q_arr), _addr(mu_arr), 1 if lazy else 0)

    def ks_apply(self, plan, x: np.ndarray, key: np.ndarray,
                 keep: np.ndarray, acc0: np.ndarray, acc1: np.ndarray,
                 work: np.ndarray, use_shoup: bool, inv_mode: int,
                 lazy: bool, ticks: np.ndarray | None) -> None:
        """``work`` is ``(3 L + 2, n)``: ``L`` coefficient rows, then
        two scratch rows per target limb."""
        limbs, n = x.shape
        self._ks_apply(_tables(plan), _addr(x), _addr(key), _addr(keep),
                       _addr(acc0), _addr(acc1), _addr(work),
                       _addr(work[limbs:]), limbs, key.shape[2], n,
                       1 if use_shoup else 0, inv_mode, 1 if lazy else 0,
                       None if ticks is None else _addr(ticks))

    def drop_top(self, plan, x: np.ndarray, inv: np.ndarray,
                 out: np.ndarray, work: np.ndarray, use_shoup: bool,
                 inv_mode: int) -> None:
        """``work`` is ``(2 R, n)``: coefficient rows, then scratch."""
        rows, n = x.shape
        self._drop_top(_tables(plan), _addr(x), _addr(inv), _addr(out),
                       _addr(work), _addr(work[rows:]), rows, n,
                       1 if use_shoup else 0, inv_mode)


def load_provider() -> CExtProvider | None:
    """Compile (hash-cached) and load the C provider; None when the
    toolchain or the load fails — the caller degrades gracefully."""
    try:
        lib_path = _build(_SOURCE, _cache_dir())
    except OSError:
        return None
    if lib_path is None:
        return None
    try:
        return CExtProvider(ctypes.CDLL(str(lib_path)))
    except OSError:
        return None
