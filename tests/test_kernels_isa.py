"""Every clone of ``kernels.c``'s row kernels gives the bytes of the build
without clones.

``kernels.c`` marks its row kernels ``ROW_KERNEL``: GCC compiles each of
them for baseline x86-64, x86-64-v3 and x86-64-v4, and the loader's
resolver runs one clone per host.  This file builds the source once
without clones (``-DKERNEL_CLONES=0``, the reference), once without
clones for each x86-64 level the host CPU supports (``-march=<level>``:
the code generation of that level's clone, run whatever the resolver
would pick) and once as the product builds it, and runs every entry of
each build on the same inputs: forward and inverse batches (reduced
inputs, and rows with words in ``[q, 2**32)`` and above ``2**32``),
automorphisms, keyswitches of one and of two Galois images, the top-limb
drop (reduced and wide inputs), the tensor product and the checked
forms' sums, over 28- to 30-bit primes from ``n = 2``, where the fused
8-word end stages are not yet taken, up to ``n = 2**16`` with the widest
NTT prime below ``2**30``, where the lanes' ``4q`` is closest to
``2**32``.  The transforms, the drop and the tensor product of every
build are also held to numpy's words.
"""

import ctypes
import os
import platform
import re
import shutil
import subprocess
from pathlib import Path

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
#: (n, prime bits, plan rows): 28- to 30-bit primes from n = 2 (below
#: n = 8 every stage runs the generic butterfly loop; from 8 the fused
#: 8-word blocks take the last three forward and first three inverse
#: stages) up to 2**16, whose first prime is the widest NTT prime below
#: 2**30 (the 32-bit lanes' tightest fit); the last has 17 limbs of
#: 30-bit primes, whose keyswitch keeps its accumulator reduced
#: (``ks_lazy`` 0).
SHAPES = [(2, 28, 3), (4, 29, 3), (8, 30, 4), (16, 30, 3), (256, 28, 4),
          (4096, 29, 3), (2**14, 30, 4), (2**16, 30, 3), (1024, 30, 18)]


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


def _inputs(n: int, bits: int, rows: int):
    primes = tuple(find_ntt_primes(2 * n, bits, rows))
    rng = np.random.default_rng([n, bits, rows])
    q = np.array(primes, dtype=np.uint64)[:, None]
    reduced = rng.integers(0, 1 << 62, (rows, n), dtype=np.uint64) % q
    wide = reduced.copy()
    # Row 1 wide: its first half in [q, 2**32), the rest from 2**32 up;
    # the last row (the drop's top) past 2**32 too.
    half = max(n // 2, 1)
    wide[1, :half] = rng.integers(primes[1], 1 << 32, half, dtype=np.uint64)
    wide[1, half:] = rng.integers(1 << 32, 1 << 63, n - half, dtype=np.uint64)
    wide[-1] = rng.integers(0, 1 << 63, n, dtype=np.uint64)
    return primes, rng, reduced, wide


def _numpy_drop(primes, x, inv) -> np.ndarray:
    """The drop written out on numpy: the top row's inverse, its
    centered lift into every remaining prime, their forward NTT, then
    ``(x_j - that) * inv[j] mod q_j``."""
    n, q_top = x.shape[1], primes[-1]
    top = get_batched_ntt(n, primes[-1:]).inverse(x[-1:])[0]
    rest = np.array(primes[:-1], dtype=np.uint64)[:, None]
    lifted = np.where(top > q_top // 2, top + rest - np.uint64(q_top),
                      top)
    lifted %= rest
    forward = get_batched_ntt(n, primes[:-1]).forward(lifted)
    diff = (x[:-1] % rest + rest - forward) % rest
    return diff * inv[:, None] % rest


def _numpy_words(n: int, bits: int, rows: int) -> dict[str, np.ndarray]:
    """The words numpy gives for the transforms, the drop and the tensor
    product on the shape's inputs, by :func:`_run_all`'s names."""
    primes, rng, x, wide = _inputs(n, bits, rows)
    plan = get_batched_ntt(n, primes)
    out = {"fwd": plan.forward(x), "fwd wide": plan.forward(wide),
           "inv": plan.inverse(x), "inv wide": plan.inverse(wide)}
    q = np.array(primes, dtype=np.uint64)[:, None]
    a0, a1, b0, b1 = _tensor_operands(x, primes)
    out.update({"tensor 0": a0 * b0 % q,
                "tensor 1": (a0 * b1 % q + a1 * b0 % q) % q,
                "tensor 2": a1 * b1 % q})
    inv = _drop_scales(primes)
    out["drop checked=False"] = _numpy_drop(primes, x, inv)
    out["drop wide"] = _numpy_drop(primes, wide, inv)
    return out


def _tensor_operands(x, primes):
    q = np.array(primes, dtype=np.uint64)[:, None]
    return [np.ascontiguousarray(op) % q for op in (
        x, x[::-1].copy(), np.roll(x, 1, axis=1), np.roll(x, 7))]


def _drop_scales(primes):
    """The drop's ``inv`` words (any nonzero reduced scales), from a
    generator of their own."""
    rng = np.random.default_rng(primes)
    return rng.integers(1, min(primes), len(primes) - 1, dtype=np.uint64)


def _run_all(impl, n: int, bits: int, rows: int) -> dict[str, np.ndarray]:
    """Every entry of ``impl`` on the shape's inputs, by name."""
    primes, rng, x, wide = _inputs(n, bits, rows)
    plan = get_batched_ntt(n, primes)
    out: dict[str, np.ndarray] = {}

    def batch(name, kernel, values):
        result = np.empty_like(values)
        kernel(plan, values, result, np.empty(values.shape, np.uint32))
        out[name] = result

    batch("fwd", impl.fwd_ntt, x)
    batch("fwd wide", impl.fwd_ntt, wide)
    batch("inv", impl.inv_ntt, x)
    batch("inv wide", impl.inv_ntt, wide)

    out["auto"] = np.empty_like(x)
    impl.auto(x, out["auto"], get_destinations(n, 5))

    parts = [np.empty_like(x) for _ in range(3)]
    impl.tensor(plan, _tensor_operands(x, primes), parts)
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
                          np.empty((5 * limbs + 3, n), dtype=np.uint32),
                          ticks, check, tables)
            name = f"ks G={count} galois={galois} checked={check is not None}"
            out[f"{name} acc0"], out[f"{name} acc1"] = acc0, acc1
            if check is not None:
                out[f"{name} sums"] = check.sums
                out[f"{name} spare"] = check.spare

    inv = _drop_scales(primes)
    for check in [None] + ([checker.fused_check(n, primes)]
                           if plan.checksum_ok else []):
        dropped = np.empty((rows - 1, n), dtype=np.uint64)
        impl.drop_top(plan, x, inv, dropped,
                      np.empty((rows + 1, n), dtype=np.uint32), check)
        out[f"drop checked={check is not None}"] = dropped
        if check is not None:
            out["drop sums"] = check.sums
    out["drop wide"] = np.empty((rows - 1, n), dtype=np.uint64)
    impl.drop_top(plan, wide, inv, out["drop wide"],
                  np.empty((rows + 1, n), dtype=np.uint32))
    return out


@pytest.mark.parametrize("n,bits,rows", SHAPES)
def test_every_build_gives_the_reference_bytes(builds, n, bits, rows):
    reference = _run_all(builds["reference"], n, bits, rows)
    assert any("checked=True" in name for name in reference)
    numpy_words = _numpy_words(n, bits, rows)
    for name, impl in builds.items():
        got = _run_all(impl, n, bits, rows)
        assert got.keys() == reference.keys()
        differ = [entry for entry, want in reference.items()
                  if got[entry].tobytes() != want.tobytes()]
        assert differ == [], f"{name}: {differ}"
        differ = [entry for entry, want in numpy_words.items()
                  if got[entry].tobytes() != want.tobytes()]
        assert differ == [], f"{name} against numpy: {differ}"


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


#: The loops that must vectorize, by the function that holds them and
#: a line of source that starts each (every such line in the function):
#: the 32-bit lane loops of both transforms -- the forward's psi fold,
#: the inverse's gather, refold and unfold, the butterfly stages and the
#: fused 8-word blocks -- the drop's finish, the tensor row and the
#: keyswitch accumulator's finish.
VECTOR_LOOPS = {
    "fwd_row": ["for (i64 i = 0; i < n; i++) {",
                "for (i64 j = 0; j < len; j++)",
                "for (i64 start = 0; start < n; start += 8) {"],
    "inv_row": ["for (i64 i = 0; i < n; i++)",
                "for (i64 j = 0; j < len; j++)",
                "for (i64 start = 0; start < n; start += 8) {"],
    "drop_finish": ["for (i64 k = 0; k < n; k++)"],
    "tensor_row": ["for (i64 k = 0; k < n; k++) {"],
    "mac_finish": ["for (i64 k = 0; k < n; k++) {"],
}


def _loop_lines(source: str, function: str, start: str) -> list[int]:
    """1-based lines of ``source`` that begin with ``start`` (indent
    aside) inside the body of ``function``."""
    lines = source.splitlines()
    head = next(i for i, line in enumerate(lines)
                if re.match(rf"^(static )?(inline )?\w+ {function}\(", line))
    end = next(i for i in range(head, len(lines)) if lines[i] == "}")
    return [i + 1 for i in range(head, end)
            if lines[i].strip().startswith(start)]


def test_the_row_loops_vectorize(tmp_path):
    """The no-clone x86-64-v4 build, with OpenMP as the product builds
    it, reports every loop of :data:`VECTOR_LOOPS` vectorized with
    64-byte vectors: a lost ``restrict`` or an OpenMP-outlined body puts
    a loop back on scalar code without changing a word."""
    cc = os.environ.get("CC", "cc")
    source = cext._SOURCE.read_text()
    for extra in (["-fopenmp"], []):
        proc = subprocess.run(
            [cc, "-O3", "-fPIC", "-shared", "-std=c11", *extra,
             "-DKERNEL_CLONES=0", "-march=x86-64-v4",
             "-fopt-info-vec-optimized", str(cext._SOURCE),
             "-o", str(tmp_path / "k.so")],
            capture_output=True, text=True, timeout=300)
        if proc.returncode == 0:
            break
    else:
        pytest.skip(f"{cc} cannot build -march=x86-64-v4")
    vectorized = {int(line) for line in re.findall(
        r"kernels\.c:(\d+):\d+: optimized: loop vectorized using 64 byte",
        proc.stderr)}
    missing = []
    for function, starts in VECTOR_LOOPS.items():
        for start in starts:
            lines = _loop_lines(source, function, start)
            assert lines, (function, start)
            missing += [(function, line) for line in lines
                        if line not in vectorized]
    assert missing == []
