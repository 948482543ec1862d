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

#: numpy walks a stack in row blocks of at most this many words — 4
#: rows at ``n = 8192``, 32 at ``n = 1024`` (one row from ``2**16``) —
#: so a block's operand and stage temporaries stay inside a 2 MB L2
#: (blocks of ``2**16`` words made ``ops_numpy`` 6 % slower).
BLOCK_WORDS = 1 << 15
#: numpy runs the butterfly stages of span below this (or below ``n``)
#: on a block's transposed ``(R, width, n // width)`` view, where each
#: ufunc walks contiguous runs ``n // width`` long.
TRANSPOSE_WIDTH = 16


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

    # Both permute the last axis: the stage kernels transform every
    # leading row of a stack alike.

    def _reverse(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        return x[..., self.tables.bitrev]

    def _unreverse(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        out = np.empty_like(x)
        out[..., self.tables.bitrev] = x
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
    table with its Shoup companion ``*_sh`` — these eight as uint32,
    the word of the kernels' butterfly lanes, which numpy's stages read
    as they are — and ``bitrev``: the layout ``kernels.c`` indexes.
    :meth:`forward` and :meth:`inverse` walk the stack in row blocks of
    ``block_rows`` rows (at most :data:`BLOCK_WORDS` words), over views
    of the same stacks built once per block, and run the stages of span
    below ``width``
    (:data:`TRANSPOSE_WIDTH`, or ``n``) on a block's transposed copy;
    ``tbitrev`` is their bit-reversal gather read through that
    transpose.  The plan holds no scratch, so threads may share it.
    Every prime must be below :data:`HOST_MODULUS_LIMIT`
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
            # Every word is below 2**32: a residue or a Shoup companion
            # of one (q < 2**30).
            table = np.stack([getattr(t, attr) for t in tabs])
            if table.max(initial=0) >= (1 << 32):
                raise ValueError(f"{attr}: a word of 2**32 or more")
            return table.astype(np.uint32)

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
        # numpy's layout: ``width`` rows of the transposed view, each
        # ``n // width`` long; ``tbitrev`` is the bit-reversal gather
        # read through that transpose (an involution, like ``bitrev``).
        self.width = min(TRANSPOSE_WIDTH, n)
        self.tbitrev = (self.bitrev % self.width * (n // self.width)
                        + self.bitrev // self.width)
        self.block_rows = max(1, BLOCK_WORDS // n)
        self._blocks = tuple(
            _Block(self, slice(start, start + self.block_rows))
            for start in range(0, len(primes), self.block_rows))

    def _stack(self, x) -> np.ndarray:
        """``x`` as a uint64 stack, refused unless it is ``(L, n)``."""
        x = np.asarray(x, dtype=np.uint64)
        if x.shape != (len(self.primes), self.n):
            raise ValueError(
                f"expected a ({len(self.primes)}, {self.n}) stack for "
                f"{len(self.primes)} primes, got shape {x.shape}")
        return x

    def forward(self, residues: np.ndarray,
                clamped: bool = False) -> np.ndarray:
        """``(L, n)`` coefficients -> natural-order evaluation values.

        ``clamped`` reduces every butterfly product strictly, reading no
        Shoup companion — the integrity layer's mid-ladder rung when
        the fast path is suspect."""
        x = self._stack(residues)
        out = np.empty_like(x)
        n, width = self.n, self.width
        for blk in self._blocks:
            xb = x[blk.rows]
            if not (xb < blk.q).all():
                xb = xb % blk.q
            if clamped:
                xb = xb * blk.psi % blk.q
            else:
                # Shoup psi fold: x < q < 2**30, so x*psi' < 2**64 and
                # the result lands in [0, 2q) — inside the lazy stage
                # invariant.
                q_hat = (xb * blk.psi_sh) >> np.uint64(32)
                q_hat *= blk.q
                xb = xb * blk.psi
                xb -= q_hat
            (tw, short_tw), (sh, short_sh) = (
                blk.stages["twf"], blk.stages["twf_sh"])
            dif_stages_lazy(xb, blk.q3, blk.two_q3, tw,
                            None if clamped else sh)
            t = np.ascontiguousarray(
                xb.reshape(-1, n // width, width).transpose(0, 2, 1))
            dif_stages_lazy(t, blk.q4, blk.two_q4, short_tw,
                            None if clamped else short_sh)
            t = t.reshape(-1, n)
            np.minimum(t, t - blk.q, out=t)
            # Bit reversal through the transpose: one gather, straight
            # into the output ("clip": the index is in range, and the
            # default mode would buffer the output).
            np.take(t, self.tbitrev, axis=1, out=out[blk.rows], mode="clip")
        return out

    def inverse(self, values: np.ndarray,
                clamped: bool = False) -> np.ndarray:
        """``(L, n)`` natural-order evaluation values -> coefficients
        (``clamped`` as for :meth:`forward`, which also rules out the
        clamp-free stages)."""
        x = self._stack(values)
        out = np.empty_like(x)
        n, width = self.n, self.width
        unclamped = self.inv_mode == 2 and not clamped
        for blk in self._blocks:
            xb = x[blk.rows]
            reduced = bool((xb < blk.q).all())
            # Bit reversal into the transposed view: one gather.
            t = np.take(xb, self.tbitrev, axis=1)
            if not reduced:
                t %= blk.q
            t = t.reshape(-1, width, n // width)
            (short_tw, tw), (short_sh, sh) = (
                blk.stages["twi"], blk.stages["twi_sh"])
            if unclamped:
                dit_stages_unclamped(t, blk.q4, short_tw)
            else:
                dit_stages_lazy(t, blk.q4, blk.two_q4, short_tw,
                                None if clamped else short_sh)
            xb = np.ascontiguousarray(t.transpose(0, 2, 1)).reshape(-1, n)
            if unclamped:
                dit_stages_unclamped(xb, blk.q3, tw)
            else:
                dit_stages_lazy(xb, blk.q3, blk.two_q3, tw,
                                None if clamped else sh)
            if unclamped or clamped:
                # Clamp-free lanes are < (log2(n)+1)*q, inside the gate's
                # product bound.
                xb *= blk.unfold
                np.remainder(xb, blk.q, out=out[blk.rows])
            else:
                # x < 2q < 2**31: Shoup unfold to [0, 2q), one subtract
                # to < q.
                q_hat = (xb * blk.unfold_sh) >> np.uint64(32)
                q_hat *= blk.q
                xb *= blk.unfold
                xb -= q_hat
                np.minimum(xb, xb - blk.q, out=out[blk.rows])
        return out


class _Block:
    """One row block of a plan: views of the plan's stacked tables for
    rows ``rows`` (``R`` of them), with the moduli as broadcast columns,
    and per twiddle table its stage views in the order the pass runs
    them, split where the layout changes.  The DIF pass runs its spans
    of at least ``width`` on the block's ``(R, n)`` rows, views ``(R,
    1, length)``, then the shorter spans on the ``(R, width, n //
    width)`` transposed copy, views ``(R, 1, length, 1)``; the DIT pass
    runs the same two groups the other way round."""

    def __init__(self, plan: BatchedNegacyclicNtt, rows: slice):
        self.rows = rows
        self.q = plan.q[rows, None]
        self.q3 = self.q[:, :, None]
        self.two_q3 = 2 * self.q3
        self.q4, self.two_q4 = self.q3[..., None], self.two_q3[..., None]
        self.psi, self.psi_sh = plan.psi[rows], plan.psi_sh[rows]
        self.unfold = plan.unfold[rows]
        self.unfold_sh = plan.unfold_sh[rows]
        self.stages = {}
        short = plan.width.bit_length() - 1  # stages of span < width
        for name, dif in (("twf", True), ("twf_sh", True),
                          ("twi", False), ("twi_sh", False)):
            table = getattr(plan, name)[rows]
            spans = stage_spans(plan.n, dif)
            split = plan.log_n - short if dif else short
            first = [table[:, None, span] for span in spans[:split]]
            then = [table[:, None, span] for span in spans[split:]]
            if dif:
                then = [view[..., None] for view in then]
            else:
                first = [view[..., None] for view in first]
            self.stages[name] = (first, then)


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
