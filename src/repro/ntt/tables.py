"""Precomputed twiddle-factor tables.

A single :class:`NttTables` instance bundles everything the transform
kernels (and the VPU mapping layer) need for one ``(n, q)`` pair: the
primitive roots, their power tables, the negacyclic ``psi`` scalings, and
the bit-reversal permutation.  Tables are cached per ``(n, q)`` because
CKKS reuses the same ring for every limb operation.
"""

from __future__ import annotations

import threading
from functools import cached_property
from itertools import accumulate

import numpy as np

from repro.arith.modular import mod_inverse
from repro.arith.primes import nth_root_of_unity
from repro.ntt.bitrev import bit_reverse_indices


class NttTables:
    """Twiddle tables for a length-``n`` NTT modulo prime ``q``.

    Parameters
    ----------
    n:
        Transform length; a power of two with ``2n | q - 1`` (so the
        negacyclic tables exist too).
    q:
        Prime modulus.

    Attributes
    ----------
    omega:
        A primitive ``n``-th root of unity (``psi**2``).
    psi:
        A primitive ``2n``-th root of unity used for negacyclic folding.
    omega_powers / omega_inv_powers:
        ``omega**j`` and ``omega**(-j)`` for ``j in [0, n)`` (uint64 when
        ``q < 2**31``, object arrays otherwise).
    psi_powers / psi_inv_powers:
        Likewise for ``psi``.
    n_inv:
        ``n**(-1) mod q``.
    """

    def __init__(self, n: int, q: int):
        if n <= 0 or n & (n - 1):
            raise ValueError(f"n must be a positive power of two, got {n}")
        if (q - 1) % (2 * n) != 0:
            raise ValueError(f"q={q} is not NTT-friendly for n={n} (need 2n | q-1)")
        self.n = n
        self.q = q
        self.log_n = n.bit_length() - 1
        self.psi = nth_root_of_unity(2 * n, q)
        self.omega = pow(self.psi, 2, q)
        self.omega_inv = mod_inverse(self.omega, q)
        self.psi_inv = mod_inverse(self.psi, q)
        self.n_inv = mod_inverse(n, q)

        dtype = np.uint64 if q < (1 << 31) else object
        self.omega_powers = self._power_table(self.omega, n, dtype)
        self.omega_inv_powers = self._power_table(self.omega_inv, n, dtype)
        self.psi_powers = self._power_table(self.psi, n, dtype)
        self.psi_inv_powers = self._power_table(self.psi_inv, n, dtype)
        self.bitrev = bit_reverse_indices(n)

    def _power_table(self, base: int, count: int, dtype) -> np.ndarray:
        # Doubling: with base**j filled for j < k, the next k powers are
        # those times base**k.
        q = self.q if dtype is object else np.uint64(self.q)
        powers = np.ones(count, dtype=dtype)
        filled, step = 1, base % self.q
        while filled < count:
            take = min(filled, count - filled)
            factor = step if dtype is object else np.uint64(step)
            out = powers[filled:filled + take]
            np.multiply(powers[:take], factor, out=out)
            np.remainder(out, q, out=out)
            filled += take
            step = step * step % self.q
        return powers

    def _flat_twiddles(self, powers: np.ndarray, dif: bool) -> np.ndarray:
        # Stage half-length ``length`` multiplies by
        # ``omega**(j * n / (2 * length))`` for ``j`` in ``[0, length)``.
        index = np.zeros(self.n - 1, dtype=np.int64)
        for span in stage_spans(self.n, dif):
            length = span.stop - span.start
            index[span] = np.arange(length) * (self.n // (2 * length))
        return powers[index]

    def _shoup(self, table: np.ndarray) -> np.ndarray:
        """Shoup companions ``floor(w * 2**32 / q)``: exact in uint64,
        as ``w < q < 2**30``."""
        if self.q >= (1 << 30):
            raise ValueError("Shoup twiddles require q < 2**30")
        return (table << np.uint64(32)) // np.uint64(self.q)

    # -- flat stage twiddles ------------------------------------------------
    #
    # Each direction keeps one flat table, its stages concatenated (DIF
    # half-lengths ``n/2, .., 1``, DIT ``1, .., n/2``: ``n - 1`` entries
    # either way), plus its Shoup companion for the mod-free butterfly.
    # A stage's twiddles are the view ``table[span]`` for its span in
    # :func:`stage_spans`; the batch plans
    # (:class:`~repro.ntt.negacyclic.BatchedNegacyclicNtt`) stack these
    # tables across primes in the row-major layout the compiled kernels
    # index.

    @cached_property
    def dif_twiddles(self) -> np.ndarray:
        """Every DIF stage twiddle, stage after stage (``n - 1``)."""
        return self._flat_twiddles(self.omega_powers, dif=True)

    @cached_property
    def dit_twiddles(self) -> np.ndarray:
        """Every inverse DIT stage twiddle, stage after stage."""
        return self._flat_twiddles(self.omega_inv_powers, dif=False)

    @cached_property
    def dif_twiddles_shoup(self) -> np.ndarray:
        """Shoup companions of :attr:`dif_twiddles` (``q < 2**30``)."""
        return self._shoup(self.dif_twiddles)

    @cached_property
    def dit_twiddles_shoup(self) -> np.ndarray:
        """Shoup companions of :attr:`dit_twiddles` (``q < 2**30``)."""
        return self._shoup(self.dit_twiddles)

    @property
    def dif_stage_twiddles(self) -> list[np.ndarray]:
        """Per-stage views of :attr:`dif_twiddles`, for
        :func:`~repro.ntt.cooley_tukey.vec_ntt_dif`."""
        return [self.dif_twiddles[s] for s in stage_spans(self.n, True)]

    @property
    def dit_stage_twiddles(self) -> list[np.ndarray]:
        """Per-stage views of :attr:`dit_twiddles`, for
        :func:`~repro.ntt.cooley_tukey.vec_intt_dit`."""
        return [self.dit_twiddles[s] for s in stage_spans(self.n, False)]

    # -- per-modulus constants of the batch plans ---------------------------

    @cached_property
    def psi_shoup(self) -> np.ndarray:
        """Shoup companions of ``psi_powers`` for the mod-free
        negacyclic fold (``q < 2**30``)."""
        return self._shoup(self.psi_powers)

    @cached_property
    def psi_inv_ninv(self) -> np.ndarray:
        """Fused unfold table ``psi**(-j) * n**(-1) mod q``: the inverse
        transform's final scaling collapsed into one product per lane."""
        fused = self.psi_inv_powers.astype(object) * self.n_inv % self.q
        return fused.astype(np.uint64) if self.q < (1 << 31) else fused

    @cached_property
    def psi_inv_ninv_shoup(self) -> np.ndarray:
        """Shoup companions of :attr:`psi_inv_ninv` (``q < 2**30``)."""
        return self._shoup(self.psi_inv_ninv)

    @cached_property
    def psi_period(self) -> np.ndarray:
        """``psi**e`` for ``e`` in ``[0, 2n)`` as uint64 (``psi**(n + j)
        = -psi**j``): the table a VPU program's twiddles are gathered
        from (:func:`repro.core.vpu.bind_table`)."""
        psi = self.psi_powers.astype(np.uint64)
        period = np.concatenate([psi, self.q - psi])
        period.setflags(write=False)
        return period

    def omega_power(self, exponent: int) -> int:
        """Return ``omega ** exponent mod q`` (any integer exponent)."""
        return int(self.omega_powers[exponent % self.n])

    def omega_inv_power(self, exponent: int) -> int:
        """Return ``omega ** (-exponent) mod q``."""
        return int(self.omega_inv_powers[exponent % self.n])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"NttTables(n={self.n}, q={self.q})"


def stage_spans(n: int, dif: bool) -> list[slice]:
    """Where each stage of a length-``n`` transform sits in a flat
    twiddle table: half-lengths ``n/2, .., 1`` for the DIF pass
    (``dif``), ``1, .., n/2`` for the DIT pass, back to back."""
    lengths = [1 << s for s in range(n.bit_length() - 1)]
    if dif:
        lengths.reverse()
    return [slice(start, start + length)
            for start, length in zip(accumulate(lengths, initial=0), lengths)]


_TABLES_CACHE: dict[tuple[int, int], NttTables] = {}
_TABLES_LOCK = threading.Lock()


def get_tables(n: int, q: int) -> NttTables:
    """Cached :class:`NttTables` lookup.

    Thread-safe: the serving layer shares one process-global table cache
    across overlapping requests, so lookup-and-build is atomic — each
    ``(n, q)`` shape is constructed exactly once.
    """
    key = (n, q)
    with _TABLES_LOCK:
        tables = _TABLES_CACHE.get(key)
        if tables is None:
            tables = _TABLES_CACHE[key] = NttTables(n, q)
    return tables


def _clear_tables_cache() -> None:
    with _TABLES_LOCK:
        _TABLES_CACHE.clear()


#: lru_cache-compatible reset hook (kept for callers written against the
#: previous ``functools.lru_cache`` implementation).
get_tables.cache_clear = _clear_tables_cache  # type: ignore[attr-defined]
