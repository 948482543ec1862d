"""The one binding between ``CompiledBackend`` and ``kernels.c``.

Builds ``kernels.c`` with the host C toolchain at first use and loads
it through ctypes — no build system, no install step, no hard
dependency: :func:`load_provider` returns ``None`` whenever a working
compiler is missing and the backend degrades to numpy.

An entry takes ``(plan, arrays...)`` and nothing that names a reduction
schedule.  The schedule is the plan's
(:class:`~repro.ntt.negacyclic.BatchedNegacyclicNtt` resolves it and
:func:`_tables` writes it into ``plan_t``); the stack accumulate, which
has no plan, asks :func:`~repro.analysis.bounds
.keyswitch_lazy_accumulate_ok` itself.  A plan exists only for host
moduli (below ``2**30``, where every NTT schedule is proven), and each
row-fused entry raises *before* the foreign call on a shape its gate
refuses, so a lazy kernel cannot be run where the analysis did not
prove it.
The two row-fused entries also take an optional ``check`` — the
integrity layer's weight tables in, the kernel's ABFT sums out
(:class:`CheckTables`) — under the same rule.

The build command is ``$CC -O3 -fPIC -shared -std=c11 [-fopenmp]
kernels.c``: ``-fopenmp`` is attempted first for per-limb parallelism —
the rows of every kernel are independent, so threading is deterministic
— with a serial fallback when the toolchain lacks it.  The command
names no CPU: ``kernels.c`` itself gives its row kernels GCC
``target_clones`` for baseline x86-64, x86-64-v3 (AVX2) and x86-64-v4
(AVX-512), and the loader's ifunc resolver picks one clone per function
once, when the library loads (:attr:`CExtProvider.isa` names it; a
toolchain that cannot clone builds the baseline alone).  So the shared
object is the same file on every x86-64 host, and its on-disk cache is
keyed by the source hash alone (under ``$REPRO_KERNEL_CACHE`` or the
system temp directory): the one-time compile cost (a few seconds) is
paid once per source revision per machine, not per process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis.bounds import keyswitch_lazy_accumulate_ok

_SOURCE = Path(__file__).with_name("kernels.c")
_VOID = ctypes.c_void_p
_I64 = ctypes.c_int64
_U64 = ctypes.c_uint64
_INT = ctypes.c_int
_U32P = ctypes.POINTER(ctypes.c_uint32)
_U64P = ctypes.POINTER(ctypes.c_uint64)
_I64P = ctypes.POINTER(ctypes.c_int64)


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
    """ctypes mirror of ``plan_t`` in ``kernels.c``, field for field:
    typed pointers to one batch plan's
    (:class:`~repro.ntt.negacyclic.BatchedNegacyclicNtt`) constant
    tables — the uint64 moduli, the eight uint32 Shoup tables the
    butterfly lanes read (the kernels derive every reduction constant
    from ``q``) and the int64 bit reversal — then its keyswitch
    accumulator schedule, ``ks_lazy``.  The NTTs have one schedule in
    C, so the plan's ``inv_mode`` (numpy's inverse stages) is not
    mirrored."""

    _fields_ = [("q", _U64P)] + [(name, _U32P) for name in (
        "psi", "psi_sh", "twf", "twf_sh", "twi", "twi_sh",
        "unfold", "unfold_sh")] + [("bitrev", _I64P), ("ks_lazy", _INT)]


def _pointer(arr: np.ndarray, pointer):
    """``arr``'s address as ``pointer``, a ctypes pointer type — or a
    :class:`TypeError` unless ``arr`` is a contiguous array of the
    pointer's element type."""
    if np.ctypeslib.as_ctypes_type(arr.dtype) is not pointer._type_ \
            or not arr.flags.c_contiguous:
        raise TypeError(f"a contiguous {pointer._type_.__name__} array "
                        f"is wanted, got {arr.dtype} {arr.shape}")
    return arr.ctypes.data_as(pointer)


def _tables(plan, entry: str, ok: bool = True) -> PlanTables:
    """The plan's ``plan_t``, built once and kept on the plan (which
    owns the arrays, so the addresses live as long as it does) — or a
    :class:`ValueError` when ``ok``, the entry's own gate, is False."""
    if not ok:
        raise ValueError(
            f"{entry}: no compiled schedule is proven sound for "
            f"n={plan.n}, primes={plan.primes}")
    tables = getattr(plan, "ctables", None)
    if tables is None:
        tables = plan.ctables = PlanTables(*(
            getattr(plan, name) if ctype is _INT
            else _pointer(getattr(plan, name), ctype)
            for name, ctype in PlanTables._fields_))
    return tables


def _work(entry: str, work: np.ndarray, n: int, rows64: int,
          rows32: int) -> tuple[int, int]:
    """The two scratch areas of one call, carved from ``work``: the
    addresses of ``rows64`` uint64 rows (each two uint32 rows of
    ``work``) and of the ``rows32`` uint32 rows of butterfly lanes
    after them.  C reads each area as one type only.  Raises
    :class:`ValueError` unless ``work`` is a contiguous uint32
    ``(2 rows64 + rows32, n)`` buffer."""
    shape = (2 * rows64 + rows32, n)
    if work.dtype != np.uint32 or work.shape != shape \
            or not work.flags.c_contiguous:
        raise ValueError(
            f"{entry}: work must be a contiguous uint32 {shape} buffer, "
            f"got {work.dtype} {work.shape}")
    base = _addr(work)
    return base, base + 8 * rows64 * n


class CheckTables(ctypes.Structure):
    """ctypes mirror of ``check_t`` in ``kernels.c``, field for field:
    the integrity layer's weight tables and key images, the two outputs
    the kernel writes its sums to, and the spare modulus."""

    _fields_ = [(name, _VOID) for name in (
        "intt", "ntt", "key_images", "sums", "spare")] + [("spare_q", _U64)]


def _pointers(arrays) -> ctypes.Array:
    """The addresses of ``arrays`` as a C array of pointers (the caller
    keeps the arrays alive across the foreign call)."""
    return (_VOID * len(arrays))(*map(_addr, arrays))


def _check_tables(plan, entry: str, check, row_ntts: int,
                  keys=None) -> CheckTables | None:
    """``check_t`` for one call — None for ``check`` None, the unchecked
    call.  ``check`` carries the stacked weight tables ``intt`` / ``ntt``
    (``(plan rows, 2, 2, n)`` uint32) and, for a keyswitch over the key
    blocks ``keys``, ``key_images`` (one per block, its shape, uint32)
    with their ``spare_modulus``; the outputs ``check.sums``
    (``(row_ntts, 2, 2)``) and ``check.spare`` (``(len(keys), plan rows,
    2, 2)``, keyswitch only) are allocated here.  Raises
    :class:`ValueError` on a plan whose checksum gate refused — or, for a
    keyswitch, whose accumulator is not kept unreduced — and on tables
    of the wrong shape or dtype."""
    if check is None:
        return None
    if not (plan.checksum_ok and (keys is None or plan.ks_lazy)):
        raise ValueError(
            f"{entry}: in-kernel integrity sums are not proven sound for "
            f"n={plan.n}, primes={plan.primes}")
    rows = len(plan.primes)
    wanted = [("intt", check.intt, (rows, 2, 2, plan.n)),
              ("ntt", check.ntt, (rows, 2, 2, plan.n))]
    if keys is not None:
        if len(check.key_images) != len(keys):
            raise ValueError(
                f"{entry}: {len(check.key_images)} check.key_images for "
                f"{len(keys)} key blocks")
        wanted += [("key_images", image, key.shape)
                   for image, key in zip(check.key_images, keys)]
    for name, table, shape in wanted:
        if table.shape != shape or table.dtype != np.uint32 \
                or not table.flags.c_contiguous:
            raise ValueError(
                f"{entry}: check.{name} must be a contiguous uint32 "
                f"{shape} table, got {table.dtype} {table.shape}")
    check.sums = np.empty((row_ntts, 2, 2), dtype=np.uint64)
    if keys is None:
        check.spare = None
        return CheckTables(_addr(check.intt), _addr(check.ntt), None,
                           _addr(check.sums), None, 0)
    check.spare = np.empty((len(keys), rows, 2, 2), dtype=np.uint64)
    images = _pointers(check.key_images)
    tables = CheckTables(
        _addr(check.intt), _addr(check.ntt), ctypes.addressof(images),
        _addr(check.sums), _addr(check.spare), check.spare_modulus)
    tables.images = images  # the struct holds an address: keep it alive
    return tables


_PLAN = ctypes.POINTER(PlanTables)
_CHECK = ctypes.POINTER(CheckTables)


class CExtProvider:
    """ctypes facade over the compiled ``kernels.c`` entry points.

    Arrays handed in must be C-contiguous uint64 (int64 for index
    tables and ticks) — the plan builder and the backend guarantee
    that — and each ``work`` buffer a uint32 one of the entry's shape
    (:func:`_work` checks it), so each call is a gate test, a handful
    of pointer loads and one foreign call, no marshalling.
    """

    name = "cext"

    def __init__(self, lib: ctypes.CDLL):
        def entry(symbol: str, *argtypes):
            fn = getattr(lib, symbol)
            fn.restype = None
            fn.argtypes = list(argtypes)
            return fn

        self._fwd = entry("repro_fwd_ntt_batch", _PLAN, _VOID, _VOID, _VOID,
                          _I64, _I64)
        self._inv = entry("repro_inv_ntt_batch", _PLAN, _VOID, _VOID, _VOID,
                          _I64, _I64)
        self._auto = entry("repro_auto_batch", _VOID, _VOID, _I64, _I64,
                           _VOID)
        self._ks = entry("repro_ks_accum", _VOID, _VOID, _VOID, _I64,
                         _VOID, _VOID, _I64, _I64, _I64, _VOID, _INT)
        self._ks_apply = entry("repro_ks_apply", _PLAN, _VOID, _VOID, _VOID,
                               _I64, _VOID, _VOID, _VOID, _VOID, _VOID,
                               _I64, _I64, _I64, _VOID, _CHECK)
        self._drop_top = entry("repro_drop_top_limb", _PLAN, _VOID, _VOID,
                               _VOID, _VOID, _VOID, _I64, _I64, _CHECK)
        self._tensor = entry("repro_tensor", _PLAN, *[_VOID] * 7, _I64, _I64)
        isa = entry("repro_kernel_isa")
        isa.restype = ctypes.c_char_p
        #: The clone of the row kernels the loader picked on this host
        #: (``x86-64-v4``, ``x86-64-v3`` or ``default``).
        self.isa = isa().decode()

    def fwd_ntt(self, plan, x: np.ndarray, out: np.ndarray,
                work: np.ndarray) -> None:
        """``work``: uint32 ``(L, n)``, the rows' butterfly lanes."""
        rows, n = x.shape
        self._fwd(_tables(plan, "fwd_ntt"), _addr(x), _addr(out),
                  _work("fwd_ntt", work, n, 0, rows)[1], rows, n)

    def inv_ntt(self, plan, x: np.ndarray, out: np.ndarray,
                work: np.ndarray) -> None:
        """``work`` as for :meth:`fwd_ntt`."""
        rows, n = x.shape
        self._inv(_tables(plan, "inv_ntt"), _addr(x), _addr(out),
                  _work("inv_ntt", work, n, 0, rows)[1], rows, n)

    def auto(self, x: np.ndarray, out: np.ndarray,
             dest: np.ndarray) -> None:
        """Pure gather: no reduction, hence no gate."""
        rows, n = x.shape
        self._auto(_addr(x), _addr(out), rows, n, _addr(dest))

    def ks_accum(self, primes: tuple[int, ...], digits: np.ndarray,
                 bstack: np.ndarray, astack: np.ndarray, key_stride: int,
                 acc0: np.ndarray, acc1: np.ndarray) -> None:
        """``key_stride``: words between consecutive digits' key rows.
        The accumulator stays unreduced until one final reduction where
        :func:`~repro.analysis.bounds.keyswitch_lazy_accumulate_ok`
        allows, and reduces every product as it is added otherwise; the
        caller has refused every modulus of ``2**30`` or more, so a
        single product always fits uint64."""
        num_digits, rows, n = digits.shape
        lazy = keyswitch_lazy_accumulate_ok(num_digits, max(primes))
        q_arr = np.array(primes, dtype=np.uint64)
        self._ks(_addr(digits), _addr(bstack), _addr(astack), key_stride,
                 _addr(acc0), _addr(acc1), num_digits, rows, n,
                 _addr(q_arr), 1 if lazy else 0)

    def ks_apply(self, plan, x: np.ndarray, keys, keep: np.ndarray,
                 acc0: np.ndarray, acc1: np.ndarray, work: np.ndarray,
                 ticks: np.ndarray | None = None, check=None,
                 tables=None) -> None:
        """``G = len(keys)`` keyswitches of ``x`` in one walk over its
        digit rows, into ``acc0`` / ``acc1`` ``(G, L + 1, n)``: plain
        ones (``tables`` None), or of its Galois images — rotation
        ``g`` reads every digit row through the int64 source table
        ``tables[g]`` against key block ``keys[g]`` (rotations).
        ``work`` is uint32 ``(5 L + 3, n)`` (:func:`_work`): ``2 L + 1``
        uint64 rows — ``L`` coefficient rows, then a digit row per
        target limb — then the butterfly lanes of each target limb.
        ``check`` (:func:`_check_tables`)
        numbers the ``L + L * L`` row NTTs as ``kernels.c`` does and
        also receives ``tables``.  ``ticks`` has five slots.
        Gate: ``plan.keyswitch_ok``."""
        limbs, n = x.shape
        tables_ok = tables is None or len(tables) == len(keys) and all(
            t.shape == (n,) and t.dtype == np.int64 for t in tables)
        if not keys or not tables_ok or len({key.shape for key in keys}) != 1 \
                or acc0.shape != (len(keys), limbs + 1, n) \
                or acc1.shape != acc0.shape:
            raise ValueError(
                f"ks_apply: {len(keys)} key blocks of shapes "
                f"{[key.shape for key in keys]}, "
                f"{None if tables is None else len(tables)} tables and "
                f"{acc0.shape} accumulators do not describe keyswitches "
                f"of a {x.shape} polynomial")
        plan_tables = _tables(plan, "ks_apply", plan.keyswitch_ok)
        scratch = _work("ks_apply", work, n, 2 * limbs + 1, limbs + 1)
        checks = _check_tables(plan, "ks_apply", check,
                               limbs + limbs * limbs, keys)
        if check is not None:
            check.tables = tables  # what the kernel reads through
        key_pointers = _pointers(keys)
        table_pointers = None if tables is None else _pointers(tables)
        self._ks_apply(plan_tables, _addr(x), key_pointers, table_pointers,
                       len(keys), _addr(keep), _addr(acc0), _addr(acc1),
                       *scratch, limbs,
                       keys[0].shape[2], n,
                       None if ticks is None else _addr(ticks), checks)

    def drop_top(self, plan, x: np.ndarray, inv: np.ndarray,
                 out: np.ndarray, work: np.ndarray, check=None) -> None:
        """``work`` is uint32 ``(R + 1, n)`` (:func:`_work`): the top
        coefficient row as uint64, then the butterfly lanes of each
        remaining limb.  ``check`` as for :meth:`ks_apply`, over ``R``
        row NTTs (the top row's inverse first).  Gate:
        ``plan.drop_top_ok``."""
        rows, n = x.shape
        tables = _tables(plan, "drop_top", plan.drop_top_ok)
        scratch = _work("drop_top", work, n, 1, rows - 1)
        self._drop_top(tables, _addr(x), _addr(inv), _addr(out), *scratch,
                       rows, n, _check_tables(plan, "drop_top", check, rows))

    def tensor(self, plan, operands, parts) -> None:
        """``parts = (a0 b0, a0 b1 + a1 b0, a1 b1)`` of ``operands = (a0,
        a1, b0, b1)``, ``(L, n)`` blocks."""
        rows, n = operands[0].shape
        self._tensor(_tables(plan, "tensor"),
                     *map(_addr, (*operands, *parts)), rows, n)


def resolve_provider(name: str | None = None) -> CExtProvider | None:
    """The compiled-kernel provider: ``cext`` (also the meaning of
    None), or ``none`` for no provider at all.  Returns ``None`` when
    there is none or the C extension cannot be built — the backend then
    runs the numpy path."""
    if name == "none":
        return None
    if name not in (None, "cext"):
        raise ValueError(
            f"unknown compiled-kernel provider {name!r} (cext|none)")
    return load_provider()


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
