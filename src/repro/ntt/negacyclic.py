"""Negacyclic NTT for the CKKS/BGV ring ``Z_q[X] / (X^n + 1)``.

The negacyclic convolution theorem: fold ``psi^j`` (a primitive ``2n``-th
root with ``psi^2 = omega``) into the inputs, run a plain cyclic NTT, and
unfold ``psi^{-j}`` after the inverse.  :class:`NegacyclicNtt` packages
this with the repository's order conventions, and
:class:`BatchedNegacyclicNtt` — the plan of one batch shape, which the
compiled kernels read too — runs it over a whole residue matrix.  Both
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

from repro.analysis.bounds import (
    centered_lift_lazy_ok,
    checksum_dot_lazy_ok,
    keyswitch_lazy_accumulate_ok,
    unclamped_dit_ok,
)
from repro.ntt.cooley_tukey import (
    dif_stages_lazy,
    dit_stages_lazy,
    dit_stages_unclamped,
    vec_intt_dit,
    vec_ntt_dif,
)
from repro.ntt.tables import NttTables, get_tables, stage_spans

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
    """The plan of one ``(n, primes)`` batch shape: the negacyclic NTT
    over a full ``(L, n)`` residue matrix in one dispatch, row ``i``
    modulo ``primes[i]``, on numpy and in the compiled kernels alike.

    This is the software shape of the paper's limb-level batching: a
    double-CRT polynomial is one unit of work, not ``L`` separate rows.
    The plan stacks each prime's constants once, row-major and
    contiguous — moduli ``q``, the psi fold
    ``psi``, the flat stage twiddles ``twf`` (forward) and ``twi``
    (inverse), the fused ``psi^{-j} * n^{-1}`` unfold ``unfold``, each
    table with its Shoup companion ``*_sh``, and ``bitrev`` — which is
    the layout ``kernels.c`` indexes; :meth:`forward` and
    :meth:`inverse` walk per-stage views of the same stacks.  Every
    prime must be below :data:`HOST_MODULUS_LIMIT`
    (:class:`HostModulusError` otherwise).

    The plan also resolves, once, the schedule every executor of the
    shape runs, from analyzer-derived gates (:mod:`repro.analysis
    .bounds`): ``inv_mode`` is 2 (clamp-free inverse stages) where
    :func:`~repro.analysis.bounds.unclamped_dit_ok` proves it and 1
    (lazy Shoup stages) otherwise — numpy's choice: the compiled
    inverse runs the lazy Shoup stages at every shape — and
    ``ks_lazy`` says whether the row-fused keyswitch may sum its digit
    products unreduced, which the compiled kernels read from
    ``plan_t``; no caller passes a schedule, so none can ask for one
    the plan never proved.  The two
    row-fused kernels read the last prime as the special prime
    (``keyswitch_ok``) or the limb being dropped (``drop_top_ok``),
    each gated on its conditional-add lift; ``checksum_ok`` gates their
    optional integrity sums: every row's two ABFT dot products fit
    uint64 unreduced (:func:`~repro.analysis.bounds.checksum_dot_lazy_ok`
    at ``max_x = 2**32 - 1``).
    """

    def __init__(self, n: int, primes: tuple[int, ...]):
        check_host_moduli(primes)
        tabs = [get_tables(n, q) for q in primes]
        self.n = n
        self.primes = primes
        self.log_n = tabs[0].log_n
        max_q = max(primes)
        rest = primes[:-1]
        self.keyswitch_ok = bool(rest) and centered_lift_lazy_ok(
            max(rest), min(primes))
        self.drop_top_ok = bool(rest) and centered_lift_lazy_ok(
            primes[-1], min(rest))
        self.checksum_ok = all(checksum_dot_lazy_ok(n, (1 << 32) - 1, q)
                               for q in set(primes))
        self.inv_mode = 2 if unclamped_dit_ok(self.log_n, max_q) else 1
        self.ks_lazy = int(keyswitch_lazy_accumulate_ok(len(rest), max_q))

        def stack(attr: str) -> np.ndarray:
            return np.stack([getattr(t, attr) for t in tabs])

        self.q = np.array(primes, dtype=np.uint64)
        self.psi = stack("psi_powers")
        self.psi_sh = stack("psi_shoup")
        self.twf = stack("dif_twiddles")
        self.twf_sh = stack("dif_twiddles_shoup")
        self.twi = stack("dit_twiddles")
        self.twi_sh = stack("dit_twiddles_shoup")
        self.unfold = stack("psi_inv_ninv")
        self.unfold_sh = stack("psi_inv_ninv_shoup")
        self.bitrev = np.ascontiguousarray(tabs[0].bitrev, dtype=np.int64)
        # Broadcast moduli and ``(L, 1, length)`` stage views for numpy.
        self._q_col = self.q[:, None]
        self._q3 = self.q[:, None, None]
        self._two_q3 = 2 * self._q3
        self._stages = {
            name: [table[:, None, span] for span in stage_spans(n, dif)]
            for name, table, dif in (
                ("twf", self.twf, True), ("twf_sh", self.twf_sh, True),
                ("twi", self.twi, False), ("twi_sh", self.twi_sh, False))}

    def forward(self, residues: np.ndarray,
                clamped: bool = False) -> np.ndarray:
        """``(L, n)`` coefficients -> natural-order evaluation values.

        ``clamped`` reduces every butterfly product strictly, reading no
        Shoup companion — the integrity layer's mid-ladder rung when
        the fast path is suspect."""
        x = np.asarray(residues, dtype=np.uint64)
        if not (x < self._q_col).all():
            x = x % self._q_col
        if clamped:
            x = x * self.psi % self._q_col
        else:
            # Shoup psi fold: x < q < 2**30, so x*psi' < 2**64 and the
            # result lands in [0, 2q) — inside the lazy stage invariant.
            q_hat = (x * self.psi_sh) >> np.uint64(32)
            x = x * self.psi - q_hat * self._q_col
        dif_stages_lazy(x, self._q3, self._two_q3, self._stages["twf"],
                        None if clamped else self._stages["twf_sh"])
        np.minimum(x, x - self._q_col, out=x)
        # Bit reversal is an involution, so undoing the DIF output order
        # is a gather with the same index table (faster than a scatter).
        return x[:, self.bitrev]

    def inverse(self, values: np.ndarray,
                clamped: bool = False) -> np.ndarray:
        """``(L, n)`` natural-order evaluation values -> coefficients
        (``clamped`` as for :meth:`forward`, which also rules out the
        clamp-free stages)."""
        x = np.asarray(values, dtype=np.uint64)
        reduced = bool((x < self._q_col).all())
        x = x[:, self.bitrev]
        if not reduced:
            x %= self._q_col
        if self.inv_mode == 2 and not clamped:
            dit_stages_unclamped(x, self._q3, self._stages["twi"])
            # Lanes are < (log2(n)+1)*q, inside the gate's product bound.
            return x * self.unfold % self._q_col
        dit_stages_lazy(x, self._q3, self._two_q3, self._stages["twi"],
                        None if clamped else self._stages["twi_sh"])
        if clamped:
            return x * self.unfold % self._q_col
        # x < 2q < 2**31: Shoup unfold to [0, 2q), one subtract to < q.
        q_hat = (x * self.unfold_sh) >> np.uint64(32)
        out = x * self.unfold - q_hat * self._q_col
        np.minimum(out, out - self._q_col, out=out)
        return out


class PlanCache:
    """The one store of batch plans, keyed ``(n, primes)``, with
    hit/miss counters.  Lookup-and-build holds a lock, so overlapping
    serving tasks build each plan once and the counters stay exact
    under concurrency."""

    def __init__(self) -> None:
        self._plans: dict[tuple[int, tuple[int, ...]],
                          BatchedNegacyclicNtt] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, n: int, primes: tuple[int, ...]) -> BatchedNegacyclicNtt:
        key = (n, primes)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                return plan
            self.misses += 1
            plan = self._plans[key] = BatchedNegacyclicNtt(n, primes)
            return plan

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        """Drop every plan and zero the counters."""
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0


_PLAN_CACHE = PlanCache()


def plan_cache() -> PlanCache:
    """The process-global plan cache, read by every host backend
    (``repro.fhe.backend.clear_caches`` clears it)."""
    return _PLAN_CACHE


def get_batched_ntt(n: int, primes: tuple[int, ...]) -> BatchedNegacyclicNtt:
    """The cached plan of one batch shape."""
    return _PLAN_CACHE.get(n, primes)


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
