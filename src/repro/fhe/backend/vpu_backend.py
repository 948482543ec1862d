"""The kernels executed on the behavioral VPU model."""

from __future__ import annotations

import threading

import numpy as np

from repro.automorphism.mapping import galois_eval_permutation


class ProgramQuarantinedError(RuntimeError):
    """A kernel resolved to a quarantined compiled program.

    Raised by :meth:`VpuBackend._program` after the integrity layer
    blacklisted the program (repeated checksum failures); callers are
    expected to degrade to a software path rather than replay it.
    """


class VpuBackend:
    """Kernels executed on the behavioral VPU model.

    Works for any power-of-two ``n >= m`` (full-width dimensions peel
    off recursively; ragged tails run in the packed grouped-CG layout);
    automorphisms work for any ``n`` divisible by ``m``.  The psi-folding
    scalings of the negacyclic wrap run as element-wise twiddle work,
    which the real VPU also does in its element-wise mode.

    A batch is packed once, one memory image per limb, and spread over
    ``units`` identical VPUs (paper §IV: the mapping extends to multiple
    VPUs for parallel execution; each unit keeps its own ``stats``):
    unit ``j`` runs limbs ``j, j + units, ...`` as one batch, which it
    replays lock step in one pass, every limb under its own prime (a unit
    with a fault hook steps them one by one).  Compiled ISA programs
    carry no prime: their twiddles and scalars are slots of a constant
    table that each prime binds by a gather
    (:func:`repro.core.vpu.bind_table`, kept on the program).  So
    programs are cached per ``(kernel, n, m)`` and shared by every unit
    and every prime — one compilation, one lowering and one lock-step
    schedule per kernel shape — so ``program_compilations`` grows with
    the number of *distinct kernel shapes* while ``kernel_invocations``
    (one per limb) grows with the work actually executed.  A fresh
    program is lowered before it is cached, so one the units refuse
    raises there and never enters the cache; the unit's lowering and its
    binding are the only checks a compiled program gets.
    """

    name = "vpu"

    def __init__(self, m: int = 16, units: int = 1):
        from repro.core import VectorProcessingUnit
        from repro.mapping import required_registers

        if units < 1:
            raise ValueError("need at least one VPU")
        self.m = m
        #: The VPUs a batch is spread over; one regfile shape, so they
        #: share every program's lowering.
        self.units = [
            VectorProcessingUnit(m=m, q=3,
                                 regfile_entries=required_registers(m),
                                 memory_rows=8)
            for _ in range(units)
        ]
        self.kernel_invocations = 0
        self.program_compilations = 0
        #: Compiled-program cache hit/miss counters.  Unlike
        #: ``program_compilations`` (the lifetime experiment record)
        #: these reset with :meth:`clear_caches`, tracking the cache
        #: *instance* — the figures the metrics registry mirrors.
        self.program_cache_hits = 0
        self.program_cache_misses = 0
        self._programs: dict[tuple, object] = {}
        self._quarantined: set[tuple] = set()
        #: Guards the compiled-program cache, the quarantine set and the
        #: units themselves for a whole batch (the serving layer shares one
        #: backend across overlapping tasks; per-key compilation must
        #: happen exactly once).  RLock so a batch may fetch programs and
        #: clear/quarantine paths may nest.
        self._cache_lock = threading.RLock()

    @property
    def vpu(self):
        """Unit 0, the only unit of a single-VPU backend (fault hooks
        install here)."""
        return self.units[0]

    # -- compiled-program cache ----------------------------------------------

    def _key(self, kind: str, n: int, galois_k: int | None = None) -> tuple:
        return (kind, n, self.m, galois_k)

    def invalidate_program(self, kind: str, n: int, *,
                           galois_k: int | None = None) -> bool:
        """Drop one cached compiled program and all its bindings.

        It is recompiled and rebound on next use — the integrity layer's
        first response to a failed check, since the cached artifact
        itself may be the poisoned state."""
        with self._cache_lock:
            return self._programs.pop(self._key(kind, n, galois_k),
                                      None) is not None

    def quarantine_program(self, kind: str, n: int, *,
                           galois_k: int | None = None) -> None:
        """Blacklist a compiled program for every prime.

        It is dropped now, bindings included, and refused later
        (:class:`ProgramQuarantinedError`) until :meth:`clear_caches`."""
        key = self._key(kind, n, galois_k)
        with self._cache_lock:
            self._programs.pop(key, None)
            self._quarantined.add(key)

    @property
    def quarantined_programs(self) -> tuple[tuple, ...]:
        with self._cache_lock:
            return tuple(sorted(self._quarantined, key=repr))

    @property
    def program_cache_size(self) -> int:
        return len(self._programs)

    def clear_caches(self) -> None:
        """Forget every compiled program, lift all quarantines, and
        zero the cache hit/miss counters (a fresh cache instance)."""
        with self._cache_lock:
            self._programs.clear()
            self._quarantined.clear()
            self.program_cache_hits = 0
            self.program_cache_misses = 0

    def _program(self, kind: str, n: int, galois_k: int | None = None):
        """Fetch (or compile and lower once) the program for one kernel
        shape; it serves every prime."""
        key = self._key(kind, n, galois_k)
        with self._cache_lock:
            if key in self._quarantined:
                raise ProgramQuarantinedError(
                    f"compiled program {key} is quarantined after detected "
                    f"corruption")
            prog = self._programs.get(key)
            if prog is not None:
                self.program_cache_hits += 1
                return prog
            self.program_cache_misses += 1
            prog = self._compile(kind, n, galois_k)
            # Decoded for the units that replay it: a program they
            # refuse raises here, before it can enter the cache.
            self.vpu.lower(prog)
            self.program_compilations += 1
            self._programs[key] = prog
        return prog

    def _compile(self, kind: str, n: int, galois_k: int | None):
        from repro.mapping import compile_automorphism
        from repro.mapping.ntt import (
            compile_negacyclic_intt,
            compile_negacyclic_ntt,
            compile_ntt,
        )

        if kind == "ntt":
            return compile_negacyclic_ntt(n, self.m)
        if kind == "intt":
            return compile_negacyclic_intt(n, self.m)
        if kind == "cyclic":
            return compile_ntt(n, self.m)
        if kind == "auto":
            return compile_automorphism(galois_eval_permutation(n, galois_k),
                                        self.m)
        raise ValueError(f"unknown kernel kind {kind!r}")  # internal misuse

    # -- the backend protocol ----------------------------------------------

    def _replay(self, kind: str, values: np.ndarray, primes: tuple[int, ...],
                pack, unpack, galois_k: int | None = None) -> np.ndarray:
        """Run the kernel's one cached program on every limb, each under
        its own prime: unit ``j`` of ``k`` runs limbs ``j, j + k, ...`` as
        one batch.  ``pack`` lays the limbs out as memory rows,
        ``unpack`` reads their results back from the memory images the
        unit leaves."""
        values = np.asarray(values, dtype=np.uint64)
        if len(values) != len(primes):
            raise ValueError(f"{len(values)} rows for {len(primes)} primes")
        n = values.shape[1]
        out = np.empty_like(values)
        if not len(primes):
            return out
        rows = pack(values, self.m)
        needed = 2 * max(n // self.m, 2)
        units = len(self.units)
        # A batch holds the units from its first limb to its last.
        with self._cache_lock:
            program = self._program(kind, n, galois_k)
            for j, unit in enumerate(self.units[:len(primes)]):
                if unit.memory.rows < needed:
                    # resize_memory keeps any installed fault hook attached.
                    unit.resize_memory(needed)
                share = rows[j::units]
                images = np.repeat(unit.memory.data[None], len(share), axis=0)
                images[:, :share.shape[1]] = share
                unit.execute(program, primes[j::units], images)
                self.kernel_invocations += len(images)
                out[j::units] = unpack(images, n)
        return out

    def forward_ntt_batch(self, residues: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        from repro.mapping import pack_for_ntt, unpack_ntt_result

        # psi-folding runs on the VPU too (element-wise twiddle mode);
        # natural-order negacyclic values, matching NegacyclicNtt.forward.
        return self._replay(
            "ntt", residues, primes, pack_for_ntt,
            lambda images, n: unpack_ntt_result(images, n, self.m))

    def cyclic_ntt_batch(self, values: np.ndarray,
                         primes: tuple[int, ...]) -> np.ndarray:
        """The plain cyclic NTT of every row, in natural order (the
        multi-VPU pool's kernel; not part of the backend protocol)."""
        from repro.mapping import pack_for_ntt, unpack_ntt_result

        return self._replay(
            "cyclic", values, primes, pack_for_ntt,
            lambda images, n: unpack_ntt_result(images, n, self.m))

    def inverse_ntt_batch(self, values: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        from repro.mapping import pack_ntt_values, unpack_columns

        return self._replay(
            "intt", values, primes, pack_ntt_values,
            lambda images, n: unpack_columns(images, n, self.m))

    def automorphism_eval_batch(self, values: np.ndarray, galois_k: int,
                                primes: tuple[int, ...]) -> np.ndarray:
        from repro.mapping import pack_for_ntt, unpack_columns

        return self._replay(
            "auto", values, primes, pack_for_ntt,
            lambda images, n: unpack_columns(images, n, self.m,
                                             base_row=n // self.m),
            galois_k)
