"""Every clone of ``kernels.c``'s row kernels gives the bytes of the build
without clones.

``kernels.c`` marks its row kernels ``ROW_KERNEL``: GCC compiles each of
them for baseline x86-64, x86-64-v3 and x86-64-v4, and the loader's
resolver runs one clone per host.  This file builds the source once
without clones (``-DKERNEL_CLONES=0``, the reference), once without
clones for each x86-64 level the host CPU supports (``-march=<level>``:
the code generation of that level's clone, run whatever the resolver
would pick) and once as the product builds it, and runs every entry of
each build on the same inputs: forward and inverse batches (both inverse
schedules, reduced and unreduced inputs), automorphisms, keyswitches of
one and of two Galois images, the top-limb drop, the tensor product and
the checked forms' sums, over 28- to 30-bit primes up to ``n = 2**14``.
"""

import ctypes
import os
import platform
import shutil
import subprocess
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.arith.primes import find_ntt_primes
from repro.fault.integrity import AbftChecker
from repro.kernels import CompiledBackend, cext
from repro.kernels.backend import get_destinations
from repro.ntt.negacyclic import get_batched_ntt

pytestmark = pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64")
    or CompiledBackend().provider_name is None,
    reason="x86-64 levels of a compiled provider (needs a C compiler)")

#: The levels the clones target, each with the /proc/cpuinfo flags it
#: adds to the one below it.
LEVELS = {
    "x86-64-v3": {"avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "movbe",
                  "abm", "xsave"},
    "x86-64-v4": {"avx512f", "avx512bw", "avx512cd", "avx512dq",
                  "avx512vl"},
}
#: (n, prime bits, plan rows): up to 2**14, 28- to 30-bit primes; the
#: last has 17 limbs of 30-bit primes, whose keyswitch keeps its
#: accumulator reduced (``ks_lazy`` 0).
SHAPES = [(256, 28, 4), (4096, 29, 3), (2**14, 30, 4), (1024, 30, 18)]


def _host_levels() -> list[str]:
    """The clone levels this host's CPU runs, lowest first."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return []
    flags = set()
    for line in text.splitlines():
        if line.startswith("flags"):
            flags = set(line.split(":", 1)[1].split())
            break
    levels, needed = [], set()
    for level, adds in LEVELS.items():
        needed |= adds
        if not needed <= flags:
            break
        levels.append(level)
    return levels


def _compile(out: Path, *flags: str) -> cext.CExtProvider:
    """``kernels.c`` built as ``cext._build`` builds it, plus ``flags``."""
    cc = os.environ.get("CC", "cc")
    for extra in (["-fopenmp"], []):
        cmd = [cc, "-O3", "-fPIC", "-shared", "-std=c11", *extra, *flags,
               str(cext._SOURCE), "-o", str(out)]
        if subprocess.run(cmd, capture_output=True, timeout=300).returncode == 0:
            return cext.CExtProvider(ctypes.CDLL(str(out)))
    pytest.fail(f"kernels.c does not build with {flags}")


@pytest.fixture(scope="module")
def builds(tmp_path_factory):
    """``{name: provider}``: the reference first, then one build per
    host level, then the product's clone build."""
    root = tmp_path_factory.mktemp("kernels_isa")
    found = {"reference": _compile(root / "reference.so", "-DKERNEL_CLONES=0")}
    for level in _host_levels():
        found[level] = _compile(root / f"{level}.so", "-DKERNEL_CLONES=0",
                                f"-march={level}")
    lib = cext._build(cext._SOURCE, root)
    found["clones"] = cext.CExtProvider(ctypes.CDLL(str(lib)))
    found["clones"].path = lib
    return found


def _with_inverse_mode(plan, mode: int):
    """``plan``'s tables under the inverse schedule ``mode``: the lazy
    Shoup schedule (1) is sound for every host prime, so a plan whose
    gate picked the clamp-free one (2) can be walked with it too."""
    fields = {name: getattr(plan, name) for name, _ in cext.PlanTables._fields_}
    return SimpleNamespace(**{**fields, "inv_mode": mode})


def _inputs(n: int, bits: int, rows: int):
    primes = tuple(find_ntt_primes(2 * n, bits, rows))
    rng = np.random.default_rng([n, bits, rows])
    q = np.array(primes, dtype=np.uint64)[:, None]
    reduced = rng.integers(0, 1 << 62, (rows, n), dtype=np.uint64) % q
    wide = reduced.copy()
    wide[1] = rng.integers(0, 1 << 63, n, dtype=np.uint64)  # one wide row
    return primes, rng, reduced, wide


def _run_all(impl, n: int, bits: int, rows: int) -> dict[str, np.ndarray]:
    """Every entry of ``impl`` on the shape's inputs, by name."""
    primes, rng, x, wide = _inputs(n, bits, rows)
    plan = get_batched_ntt(n, primes)
    out: dict[str, np.ndarray] = {}

    def batch(name, kernel, kernel_plan, values):
        result = np.empty_like(values)
        kernel(kernel_plan, values, result, np.empty_like(values))
        out[name] = result

    for mode in (1, 2):
        modal = _with_inverse_mode(plan, mode)
        batch(f"fwd mode{mode}", impl.fwd_ntt, modal, x)
        batch(f"fwd wide mode{mode}", impl.fwd_ntt, modal, wide)
        batch(f"inv mode{mode}", impl.inv_ntt, modal, x)
        batch(f"inv wide mode{mode}", impl.inv_ntt, modal, wide)

    out["auto"] = np.empty_like(x)
    impl.auto(x, out["auto"], get_destinations(n, 5))

    parts = [np.empty_like(x) for _ in range(3)]
    operands = [x, x[::-1].copy(), np.roll(x, 1, axis=1), np.roll(x, 7)]
    impl.tensor(plan, [np.ascontiguousarray(op) % np.array(
        primes, dtype=np.uint64)[:, None] for op in operands], parts)
    out.update({f"tensor {i}": part for i, part in enumerate(parts)})

    limbs = rows - 1
    keep = np.arange(rows, dtype=np.int64)
    key_rows = np.array(primes, dtype=np.uint64)[None, None, :, None]
    blocks = [rng.integers(0, 1 << 62, (limbs, 2, rows, n),
                           dtype=np.uint64) % key_rows for _ in range(2)]
    checker = AbftChecker(seed=1)
    for count, galois in ((1, None), (1, [5]), (2, [5, 25])):
        keys = blocks[:count]
        tables = None if galois is None else [
            get_destinations(n, pow(k, -1, 2 * n)) for k in galois]
        checks = [None] + ([checker.fused_check(n, primes, keys, galois)]
                           if plan.checksum_ok and plan.ks_lazy else [])
        for check in checks:
            acc0 = np.empty((count, rows, n), dtype=np.uint64)
            acc1 = np.empty_like(acc0)
            ticks = np.zeros(5, dtype=np.int64)
            impl.ks_apply(plan, x[:limbs].copy(), keys, keep, acc0, acc1,
                          np.empty((3 * limbs + 2, n), dtype=np.uint64),
                          ticks, check, tables)
            name = f"ks G={count} galois={galois} checked={check is not None}"
            out[f"{name} acc0"], out[f"{name} acc1"] = acc0, acc1
            if check is not None:
                out[f"{name} sums"] = check.sums
                out[f"{name} spare"] = check.spare

    inv = rng.integers(1, min(primes), rows - 1, dtype=np.uint64)
    for check in [None] + ([checker.fused_check(n, primes)]
                           if plan.checksum_ok else []):
        dropped = np.empty((rows - 1, n), dtype=np.uint64)
        impl.drop_top(plan, x, inv, dropped,
                      np.empty((rows, n), dtype=np.uint64), check)
        out[f"drop checked={check is not None}"] = dropped
        if check is not None:
            out["drop sums"] = check.sums
    return out


@pytest.mark.parametrize("n,bits,rows", SHAPES)
def test_every_build_gives_the_reference_bytes(builds, n, bits, rows):
    reference = _run_all(builds["reference"], n, bits, rows)
    assert any("checked=True" in name for name in reference)
    for name, impl in builds.items():
        got = _run_all(impl, n, bits, rows)
        assert got.keys() == reference.keys()
        differ = [entry for entry, want in reference.items()
                  if got[entry].tobytes() != want.tobytes()]
        assert differ == [], f"{name}: {differ}"


def _clone_symbols(path: Path) -> dict[str, int]:
    """``nm``'s symbols of a build, by name (skips without ``nm``)."""
    nm = shutil.which("nm")
    if nm is None:
        pytest.skip("no nm to list the clone symbols")
    symbols = {}
    for line in subprocess.run([nm, str(path)], capture_output=True,
                               text=True, check=True).stdout.splitlines():
        fields = line.split()
        if len(fields) == 3:
            symbols.setdefault(fields[2], int(fields[0], 16))
    return symbols


def test_each_build_names_its_level(builds):
    levels = _host_levels()
    assert builds["reference"].isa == "default"
    for level in levels:
        assert builds[level].isa == level
    cloned = "repro_kernel_isa.default" in _clone_symbols(
        builds["clones"].path)
    assert builds["clones"].isa == (
        levels[-1] if levels and cloned else "default")
    assert CompiledBackend().kernel_isa == builds["clones"].isa
    assert CompiledBackend(provider="none").kernel_isa is None


def test_the_named_clone_is_the_one_the_loader_picked(builds):
    """The address ``repro_kernel_isa`` resolved to is the symbol of the
    clone it names (GCC's ``<function>.<target>`` clone symbols)."""
    impl = builds["clones"]
    symbols = _clone_symbols(impl.path)
    if "repro_kernel_isa.default" not in symbols:
        pytest.skip("this toolchain builds no clones")
    lib = ctypes.CDLL(str(impl.path))
    address = ctypes.cast(lib.repro_kernel_isa, ctypes.c_void_p).value
    # An exported, uncloned entry fixes where the library was loaded.
    base = ctypes.cast(lib.repro_ks_accum, ctypes.c_void_p).value \
        - symbols["repro_ks_accum"]
    picked = [name for name, offset in symbols.items()
              if name.startswith("repro_kernel_isa.")
              and base + offset == address]
    clone = "default" if impl.isa == "default" \
        else "arch_" + impl.isa.replace("-", "_")
    assert picked == [f"repro_kernel_isa.{clone}"]
