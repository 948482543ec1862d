"""Negacyclic NTT for the CKKS/BGV ring ``Z_q[X] / (X^n + 1)``.

The negacyclic convolution theorem: fold ``psi^j`` (a primitive ``2n``-th
root with ``psi^2 = omega``) into the inputs, run a plain cyclic NTT, and
unfold ``psi^{-j}`` after the inverse.  :class:`NegacyclicNtt` packages
this with the repository's order conventions, and
:class:`BatchedNegacyclicNtt` runs it over a whole residue matrix.  Both
refuse a modulus of ``2**30`` or more (:func:`check_host_moduli`); the
VPU model's 64-bit words take such primes, against
:mod:`repro.ntt.reference`.

The ``forward`` output is in **natural order** (bit-reversal applied
internally after the DIF pass) because the FHE layer treats evaluation
vectors as indexable slot arrays — in particular the automorphism layer
relies on natural order to stay an *affine* index permutation
(:mod:`repro.automorphism`).  ``forward_bitrev``/``inverse_bitrev`` expose
the raw hardware order used on the VPU, where no reversal is ever needed.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.analysis.bounds import unclamped_dit_ok
from repro.ntt.cooley_tukey import (
    _stacked_stage_twiddles,
    dif_stages_lazy,
    dit_stages_lazy,
    dit_stages_unclamped,
    vec_intt_dit,
    vec_ntt_dif,
)
from repro.ntt.tables import NttTables, get_tables

#: Every host modulus is below this: a product of two residues stays
#: below ``2**60`` and a Shoup quotient is exact, so each host kernel
#: runs one uint64 schedule.
HOST_MODULUS_LIMIT = 1 << 30


class HostModulusError(ValueError):
    """A host batch met a modulus of :data:`HOST_MODULUS_LIMIT` or more."""


def check_host_moduli(moduli) -> None:
    """Raise :class:`HostModulusError` on the first modulus of ``2**30``
    or more; every host entry point calls this before any work."""
    for q in moduli:
        if q >= HOST_MODULUS_LIMIT:
            raise HostModulusError(
                f"modulus {q} is not below the host limit 2**30")


class NegacyclicNtt:
    """Forward/inverse negacyclic NTT bound to one ``(n, q)`` pair."""

    def __init__(self, n: int, q: int):
        check_host_moduli((q,))
        self.tables: NttTables = get_tables(n, q)
        self.n = n
        self.q = q

    # -- natural-order API (software / FHE layer) ---------------------------

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients -> natural-order evaluation values."""
        return self._unreverse(self.forward_bitrev(coeffs))

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Natural-order evaluation values -> coefficients."""
        return self.inverse_bitrev(self._reverse(values))

    # -- bit-reversed API (hardware order) ----------------------------------

    def forward_bitrev(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients -> bit-reversed evaluation values (DIF output)."""
        t = self.tables
        x = np.asarray(coeffs, dtype=np.uint64) % np.uint64(self.q)
        x = x * t.psi_powers % np.uint64(self.q)
        return vec_ntt_dif(x, t)

    def inverse_bitrev(self, values: np.ndarray) -> np.ndarray:
        """Bit-reversed evaluation values -> coefficients (DIT input)."""
        t = self.tables
        x = np.asarray(values, dtype=np.uint64) % np.uint64(self.q)
        x = vec_intt_dit(x, t)
        return x * t.psi_inv_powers % np.uint64(self.q)

    # -- order conversion ----------------------------------------------------

    def _reverse(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        return x[self.tables.bitrev]

    def _unreverse(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        out = np.empty_like(x)
        out[self.tables.bitrev] = x
        return out


class BatchedNegacyclicNtt:
    """Negacyclic NTT over a full ``(L, n)`` residue matrix in one
    dispatch — row ``i`` transformed modulo ``primes[i]``.

    This is the software shape of the paper's limb-level batching: a
    double-CRT polynomial is one unit of work, not ``L`` separate rows.
    The psi/psi-inverse foldings and the per-stage twiddles are stacked
    across primes once at construction, so every stage of every limb
    runs as a single vectorized butterfly pass.  Every prime must be
    below :data:`HOST_MODULUS_LIMIT`.
    """

    def __init__(self, n: int, primes: tuple[int, ...],
                 clamped: bool = False):
        self.n = n
        self.primes = primes
        #: Clamped mode disables the Shoup and unclamped-DIT fast paths,
        #: so every butterfly product is strictly reduced — the integrity
        #: layer's mid-ladder fallback when the fast paths are suspect.
        self.clamped = clamped
        check_host_moduli(primes)
        self.tables = [get_tables(n, q) for q in primes]
        self._q_col = np.array(primes, dtype=np.uint64)[:, None]
        self._q3 = self._q_col[:, :, None]
        self._two_q3 = 2 * self._q3
        self._psi = np.stack([t.psi_powers for t in self.tables])
        # Fused psi^{-j} * n^{-1} unfold table: the inverse transform's
        # lazy stage outputs (< 4q) hit exactly one final reduction.
        # (Hoisted per-modulus onto NttTables, shared with the compiled
        # backend's constant-table plans.)
        self._psi_inv_ninv = np.stack([t.psi_inv_ninv for t in self.tables])
        self._dif_tw = _stacked_stage_twiddles(self.tables, "dif")
        self._dit_tw = _stacked_stage_twiddles(self.tables, "dit")
        # Shoup companions make the forward butterfly and the psi folding
        # mod-free (q < 2**30, the host limit).
        if not clamped:
            self._dif_shoup = _stacked_stage_twiddles(self.tables, "dif_shoup")
            self._dit_shoup = _stacked_stage_twiddles(self.tables, "dit_shoup")
            self._psi_shoup = np.stack([t.psi_shoup for t in self.tables])
            self._unfold_shoup = np.stack(
                [t.psi_inv_ninv_shoup for t in self.tables])
        else:
            self._dif_shoup = None
            self._dit_shoup = None
            self._psi_shoup = None
            self._unfold_shoup = None
        # Clamp-free inverse stages: lane growth is only +q per stage
        # (the twiddled half is always freshly reduced), reaching exactly
        # (log2(n)+1)*q - 1 after the last stage.  The analyzer proves
        # every intermediate — including the fused unfold product — fits
        # uint64 before the fast path is allowed.
        log_n = self.tables[0].log_n
        self._dit_unclamped = (not clamped) and unclamped_dit_ok(
            log_n, max(primes))
        self._bitrev = self.tables[0].bitrev

    def forward(self, residues: np.ndarray) -> np.ndarray:
        """``(L, n)`` coefficients -> natural-order evaluation values."""
        x = np.asarray(residues, dtype=np.uint64)
        if not (x < self._q_col).all():
            x = x % self._q_col
        if self._psi_shoup is not None:
            # Shoup psi fold: x < q < 2**30, so x*psi' < 2**64 and the
            # result lands in [0, 2q) — inside the lazy stage invariant.
            q_hat = (x * self._psi_shoup) >> np.uint64(32)
            x = x * self._psi - q_hat * self._q_col
        else:
            x = x * self._psi % self._q_col
        dif_stages_lazy(x, self._q3, self._two_q3, self._dif_tw,
                        self._dif_shoup)
        np.minimum(x, x - self._q_col, out=x)
        # Bit reversal is an involution, so undoing the DIF output order
        # is a gather with the same index table (faster than a scatter).
        return x[:, self._bitrev]

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """``(L, n)`` natural-order evaluation values -> coefficients."""
        x = np.asarray(values, dtype=np.uint64)
        reduced = bool((x < self._q_col).all())
        x = x[:, self._bitrev]
        if not reduced:
            x %= self._q_col
        if self._dit_unclamped:
            dit_stages_unclamped(x, self._q3, self._dit_tw)
            # Lanes are < (log2(n)+1)*q, inside the gate's product bound.
            return x * self._psi_inv_ninv % self._q_col
        dit_stages_lazy(x, self._q3, self._two_q3, self._dit_tw,
                        self._dit_shoup)
        if self._unfold_shoup is not None:
            # x < 2q < 2**31: Shoup unfold to [0, 2q), one subtract to < q.
            q_hat = (x * self._unfold_shoup) >> np.uint64(32)
            out = x * self._psi_inv_ninv - q_hat * self._q_col
            np.minimum(out, out - self._q_col, out=out)
            return out
        return x * self._psi_inv_ninv % self._q_col


_BATCHED_CACHE: "dict[tuple[int, tuple[int, ...], bool], BatchedNegacyclicNtt]" = {}
_BATCHED_LOCK = threading.Lock()


def get_batched_ntt(n: int, primes: tuple[int, ...],
                    clamped: bool = False) -> BatchedNegacyclicNtt:
    """Cached :class:`BatchedNegacyclicNtt` per ``(n, primes, clamped)``
    stack (``repro.fhe.backend.clear_caches`` drops the cache).

    Thread-safe: lookup-and-build holds a lock, so overlapping serving
    tasks construct each stack exactly once."""
    key = (n, primes, clamped)
    with _BATCHED_LOCK:
        ntt = _BATCHED_CACHE.get(key)
        if ntt is None:
            ntt = _BATCHED_CACHE[key] = BatchedNegacyclicNtt(n, primes, clamped)
    return ntt


def _clear_batched_cache() -> None:
    with _BATCHED_LOCK:
        _BATCHED_CACHE.clear()


#: lru_cache-compatible reset hook (``repro.fhe.backend.clear_caches``
#: still calls ``get_batched_ntt.cache_clear()``).
get_batched_ntt.cache_clear = _clear_batched_cache  # type: ignore[attr-defined]


def negacyclic_poly_mul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Multiply two polynomials in ``Z_q[X]/(X^n + 1)`` via the NTT.

    O(n log n); checked against the schoolbook reference in the tests.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ntt = NegacyclicNtt(len(a), q)
    fa = ntt.forward_bitrev(a)
    fb = ntt.forward_bitrev(b)
    return ntt.inverse_bitrev(fa * fb % np.uint64(q))
