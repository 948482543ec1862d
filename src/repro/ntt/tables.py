"""Precomputed twiddle-factor tables.

A single :class:`NttTables` instance bundles everything the transform
kernels (and the VPU mapping layer) need for one ``(n, q)`` pair: the
primitive roots, their power tables, the negacyclic ``psi`` scalings, and
the bit-reversal permutation.  Tables are cached per ``(n, q)`` because
CKKS reuses the same ring for every limb operation.
"""

from __future__ import annotations

import threading

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
        self._dif_stage_twiddles: list[np.ndarray] | None = None
        self._dit_stage_twiddles: list[np.ndarray] | None = None
        self._dif_stage_twiddles_shoup: list[np.ndarray] | None = None
        self._dit_stage_twiddles_shoup: list[np.ndarray] | None = None
        self._barrett_mu: int | None = None
        self._psi_shoup: np.ndarray | None = None
        self._psi_inv_ninv: np.ndarray | None = None
        self._psi_inv_ninv_shoup: np.ndarray | None = None
        self._dif_twiddles_flat: np.ndarray | None = None
        self._dit_twiddles_flat: np.ndarray | None = None
        self._dif_twiddles_flat_shoup: np.ndarray | None = None
        self._dit_twiddles_flat_shoup: np.ndarray | None = None
        self._psi_period: np.ndarray | None = None

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

    def _stage_twiddles(self, powers: np.ndarray,
                        lengths: list[int]) -> list[np.ndarray]:
        out = []
        for length in lengths:
            step = self.n // (2 * length)
            out.append(powers[(np.arange(length) * step) % self.n])
        return out

    @property
    def dif_stage_twiddles(self) -> list[np.ndarray]:
        """Per-stage twiddle vectors for the DIF pass, hoisted once.

        Stage ``s`` (half-lengths ``n/2, n/4, .., 1``) multiplies the
        lower butterfly outputs by ``omega**(j * step)`` for ``j`` in
        ``[0, length)``; the gather used to be rebuilt on every
        :func:`~repro.ntt.cooley_tukey.vec_ntt_dif` call.
        """
        if self._dif_stage_twiddles is None:
            lengths = [self.n >> (s + 1) for s in range(self.log_n)]
            self._dif_stage_twiddles = self._stage_twiddles(
                self.omega_powers, lengths)
        return self._dif_stage_twiddles

    @property
    def dit_stage_twiddles(self) -> list[np.ndarray]:
        """Per-stage inverse twiddles for the DIT pass (lengths
        ``1, 2, .., n/2``), hoisted once per table."""
        if self._dit_stage_twiddles is None:
            lengths = [1 << s for s in range(self.log_n)]
            self._dit_stage_twiddles = self._stage_twiddles(
                self.omega_inv_powers, lengths)
        return self._dit_stage_twiddles

    def _shoup(self, twiddles: list[np.ndarray]) -> list[np.ndarray]:
        if self.q >= (1 << 30):
            raise ValueError("Shoup twiddles require q < 2**30")
        return [((tw.astype(object) << 32) // self.q).astype(np.uint64)
                for tw in twiddles]

    @property
    def dif_stage_twiddles_shoup(self) -> list[np.ndarray]:
        """Shoup companions ``floor(w * 2**32 / q)`` of the DIF stage
        twiddles, for the mod-free butterfly product (``q < 2**30``)."""
        if self._dif_stage_twiddles_shoup is None:
            self._dif_stage_twiddles_shoup = self._shoup(
                self.dif_stage_twiddles)
        return self._dif_stage_twiddles_shoup

    @property
    def dit_stage_twiddles_shoup(self) -> list[np.ndarray]:
        """Shoup companions of the DIT stage twiddles (``q < 2**30``)."""
        if self._dit_stage_twiddles_shoup is None:
            self._dit_stage_twiddles_shoup = self._shoup(
                self.dit_stage_twiddles)
        return self._dit_stage_twiddles_shoup

    # -- compiled-backend constant tables ----------------------------------
    #
    # The fused kernels (:mod:`repro.kernels`) consume per-modulus
    # constants hoisted here so they are computed exactly once per
    # ``(n, q)`` and shared by every backend that wants them: the
    # Barrett constant, the Shoup psi companions, the fused
    # ``psi^{-1} * n^{-1}`` unfold table, and the stage twiddles
    # flattened into one contiguous vector per direction (DIF lengths
    # ``n/2, .., 1`` and DIT lengths ``1, .., n/2`` both concatenate to
    # exactly ``n - 1`` entries).

    @property
    def barrett_mu(self) -> int:
        """Barrett constant ``floor(2**64 / q)``: the estimate
        ``floor(z * mu / 2**64)`` undershoots ``floor(z / q)`` by at
        most 2 for any uint64 ``z``, so reduction is two multiplies and
        at most two conditional subtracts."""
        if self._barrett_mu is None:
            self._barrett_mu = (1 << 64) // self.q
        return self._barrett_mu

    @property
    def psi_shoup(self) -> np.ndarray:
        """Shoup companions of ``psi_powers`` for the mod-free
        negacyclic fold (``q < 2**30``)."""
        if self._psi_shoup is None:
            self._psi_shoup = self._shoup([self.psi_powers])[0]
        return self._psi_shoup

    @property
    def psi_inv_ninv(self) -> np.ndarray:
        """Fused unfold table ``psi**(-j) * n**(-1) mod q``: the inverse
        transform's final scaling collapsed into one product per lane."""
        if self._psi_inv_ninv is None:
            fused = self.psi_inv_powers.astype(object) * self.n_inv % self.q
            self._psi_inv_ninv = (fused.astype(np.uint64)
                                  if self.q < (1 << 31)
                                  else fused)
        return self._psi_inv_ninv

    @property
    def psi_inv_ninv_shoup(self) -> np.ndarray:
        """Shoup companions of :attr:`psi_inv_ninv` (``q < 2**30``)."""
        if self._psi_inv_ninv_shoup is None:
            self._psi_inv_ninv_shoup = self._shoup([self.psi_inv_ninv])[0]
        return self._psi_inv_ninv_shoup

    @property
    def psi_period(self) -> np.ndarray:
        """``psi**e`` for ``e`` in ``[0, 2n)`` as uint64 (``psi**(n + j)
        = -psi**j``): the table a VPU program's twiddles are gathered
        from (:func:`repro.core.vpu.bind_table`)."""
        if self._psi_period is None:
            psi = self.psi_powers.astype(np.uint64)
            self._psi_period = np.concatenate([psi, self.q - psi])
            self._psi_period.setflags(write=False)
        return self._psi_period

    def _concat(self, stages: list[np.ndarray]) -> np.ndarray:
        if not stages:  # n == 1: a zero-stage transform
            return np.empty(0, dtype=np.uint64)
        return np.concatenate(stages)

    @property
    def dif_twiddles_flat(self) -> np.ndarray:
        """All DIF stage twiddles concatenated (``n - 1`` entries)."""
        if self._dif_twiddles_flat is None:
            self._dif_twiddles_flat = self._concat(self.dif_stage_twiddles)
        return self._dif_twiddles_flat

    @property
    def dit_twiddles_flat(self) -> np.ndarray:
        """All DIT stage twiddles concatenated (``n - 1`` entries)."""
        if self._dit_twiddles_flat is None:
            self._dit_twiddles_flat = self._concat(self.dit_stage_twiddles)
        return self._dit_twiddles_flat

    @property
    def dif_twiddles_flat_shoup(self) -> np.ndarray:
        """Shoup companions of :attr:`dif_twiddles_flat`."""
        if self._dif_twiddles_flat_shoup is None:
            self._dif_twiddles_flat_shoup = self._concat(
                self.dif_stage_twiddles_shoup)
        return self._dif_twiddles_flat_shoup

    @property
    def dit_twiddles_flat_shoup(self) -> np.ndarray:
        """Shoup companions of :attr:`dit_twiddles_flat`."""
        if self._dit_twiddles_flat_shoup is None:
            self._dit_twiddles_flat_shoup = self._concat(
                self.dit_stage_twiddles_shoup)
        return self._dit_twiddles_flat_shoup

    def omega_power(self, exponent: int) -> int:
        """Return ``omega ** exponent mod q`` (any integer exponent)."""
        return int(self.omega_powers[exponent % self.n])

    def omega_inv_power(self, exponent: int) -> int:
        """Return ``omega ** (-exponent) mod q``."""
        return int(self.omega_inv_powers[exponent % self.n])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"NttTables(n={self.n}, q={self.q})"


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
