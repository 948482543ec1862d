"""Symbolic interval analysis of the numpy lazy-reduction stage plans.

Each ``analyze_*`` function mirrors one kernel of
:mod:`repro.ntt.cooley_tukey` / :mod:`repro.ntt.negacyclic` /
:mod:`repro.fhe.keyswitch` **line by line**, propagating one lane-value
:class:`~repro.analysis.intervals.Interval` per stage and checking every
intermediate expression the kernel evaluates:

* the fit of every product/sum before it is formed (rule ``S001``):
  a lane value fits the plan's lane word — uint64 for numpy's stages,
  a 32-bit word for ``kernels.c``'s butterfly lanes (``word_bits=32``)
  — and a widened 32 x 32 -> 64 product fits uint64;
* the Shoup preconditions — ``q < 2**30`` and the multiplicand below the
  ``2**32`` precision radix (rules ``S002``/``S003``);
* the declared lane invariant after every stage (``< 2q`` for lazy
  plans; the documented growth schedule for the unclamped plan, rule
  ``S004``);
* the declared output invariant (rule ``S005``).

The mutation keyword arguments (``skip_total_clamp`` /
``skip_diff_clamp`` / ``skip_subtract``, and the shifts of
:func:`analyze_fold` / :func:`analyze_barrett_w`) model *removing* one
of the conditional subtracts or shifting by the wrong amount, so tests
can confirm that the analyzer reports the resulting overflow — exactly
the regression the hand-derived comments could never catch.

Two analyses mirror ``kernels.c``'s word reductions rather than a
numpy stage: :func:`analyze_fold` (any uint64 word) and
:func:`analyze_barrett_w` (a product of two reduced words).

Derived bounds (exact, inclusive):

* lazy DIF/DIT stages keep every lane ``<= 2q - 1`` with worst transient
  ``4q - 1`` before a clamp and ``(4q - 1)(q - 1)`` under the twiddle
  product;
* the unclamped DIT plan grows by exactly ``+q`` per stage from an entry
  of ``q - 1``: after stage ``s`` the lane bound is ``(s + 2)q - 1``, so
  after ``log2(n)`` stages it is ``(log2(n) + 1)q - 1`` — the hand-coded
  gate's ``(log2(n)+1) * q**2`` was the (safe) ceiling of the true
  binding product ``((log2(n)+1)q - 1)(q - 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.findings import FindingList
from repro.analysis.intervals import U64_MAX, Interval

_SHOUP_RADIX = 1 << 32


@dataclass
class PlanReport:
    """Outcome of one symbolic stage-plan analysis."""

    name: str
    q: int
    stages: int
    #: Width of the lane word every sum, difference and Shoup low
    #: product must fit: 64 (numpy) or 32 (``kernels.c``).
    word_bits: int = 64
    #: Inclusive lane bound after each stage (entry bound first).
    stage_bounds: list[int] = field(default_factory=list)
    #: Largest uint64 intermediate formed anywhere in the plan.
    max_intermediate: int = 0
    #: Inclusive bound on the plan's output lanes.
    output_bound: int = 0
    findings: FindingList = field(default_factory=FindingList)

    @property
    def ok(self) -> bool:
        return self.findings.ok


class _Plan:
    """Bound bookkeeping shared by the stage mirrors, for lanes of
    ``word_bits`` bits (64 or 32)."""

    def __init__(self, name: str, q: int, stages: int,
                 word_bits: int = 64):
        self.q = q
        self.report = PlanReport(name=name, q=q, stages=stages,
                                 word_bits=word_bits)
        self.word_bits = word_bits
        self.word_max = (1 << word_bits) - 1
        self.stage = -1  # -1 = entry / pre-stage work

    def _loc(self) -> str:
        return "entry" if self.stage < 0 else f"stage {self.stage}"

    def error(self, rule: str, message: str) -> None:
        self.report.findings.error("plan", rule, self._loc(), message)

    def intermediate(self, value: Interval, what: str,
                     wide: bool = False) -> Interval:
        """Record an intermediate and check it fits the lane word — or,
        ``wide``, a widened product, uint64."""
        if value.hi > self.report.max_intermediate:
            self.report.max_intermediate = value.hi
        if wide or self.word_max == U64_MAX:
            if not value.fits_uint64:
                self.error("S001", f"{what}: bound {value.hi} exceeds "
                                   f"uint64 max {U64_MAX}")
        elif value.hi > self.word_max:
            self.error("S001", f"{what}: bound {value.hi} wraps the "
                               f"{self.word_bits}-bit lane word (max "
                               f"{self.word_max})")
        return value

    def mul_mod(self, x: Interval, factor_hi: int, what: str) -> Interval:
        """``x * w % q`` with a fully reduced factor ``w <= factor_hi``."""
        self.intermediate(x.mul(Interval.upto(factor_hi)), what)
        return Interval.reduced(self.q)

    def shoup_mul(self, x: Interval, what: str) -> Interval:
        """Shoup product ``x*w - (x*w' >> 32)*q`` landing in ``[0, 2q)``.

        Preconditions (checked): ``q < 2**30`` so the quotient error is
        absorbed, and ``x < 2**32`` (the precision radix) so the
        estimate is within one of the true quotient.  On 32-bit lanes
        ``x * w'`` is the one widened product and the two low products
        wrap mod ``2**32``: their difference is exact when the result,
        below ``2q``, fits the lane word.
        """
        q = self.q
        if q >= (1 << 30):
            self.error("S002",
                       f"{what}: Shoup path requires q < 2**30, q={q}")
        if x.hi >= _SHOUP_RADIX:
            self.error(
                "S003",
                f"{what}: Shoup multiplicand bound {x.hi} reaches the "
                f"2**32 precision radix — result no longer < 2q")
        self.intermediate(x.mul(Interval.upto(_SHOUP_RADIX - 1)),
                          f"{what}: x * w_shoup", wide=True)
        if self.word_max == U64_MAX:
            self.intermediate(x.mul(Interval.upto(q - 1)), f"{what}: x * w")
            return Interval.upto(2 * q - 1)
        return self.intermediate(Interval.upto(2 * q - 1),
                                 f"{what}: x * w - est * q mod 2**32")

    def cond_sub(self, x: Interval, t: int, what: str) -> Interval:
        """``np.minimum(x, x - t)`` — requires the input to fit the lane
        word."""
        self.intermediate(x, what)
        return x.cond_sub(t)

    def finish(self, out: Interval, declared_hi: int, what: str) -> PlanReport:
        self.report.output_bound = out.hi
        if out.hi > declared_hi:
            self.error(
                "S005",
                f"{what}: output bound {out.hi} exceeds the declared "
                f"invariant {declared_hi}")
        return self.report


def analyze_dif_lazy(log_n: int, q: int, *, shoup: bool,
                     entry_hi: int | None = None,
                     skip_total_clamp: bool = False,
                     skip_diff_clamp: bool = False,
                     word_bits: int = 64) -> PlanReport:
    """Mirror of :func:`repro.ntt.cooley_tukey.dif_stages_lazy`.

    Entry lanes may be anywhere in ``[0, 2q)`` (the Shoup psi-folding of
    the negacyclic wrapper enters at ``2q - 1``); every stage restores
    the ``< 2q`` lane invariant.  Declared output: ``< 2q``.

    The plan (:class:`repro.ntt.negacyclic.BatchedNegacyclicNtt`) runs
    these stages per row block in two calls: the spans of at least 16
    on the block's natural ``(R, n)`` rows and the shorter ones on its
    transposed ``(R, 16, n/16)`` copy, where each ufunc walks ``n/16``
    contiguous lanes.  A stage's arithmetic is the same in either
    layout and the second call enters at the first call's exit bound,
    so one walk over all ``log_n`` stages covers both calls.

    ``word_bits=32`` mirrors ``kernels.c``'s ``fwd_row`` instead, whose
    lanes are 32-bit words: the same stages (its fused 8-word blocks
    are the last three), every sum and difference below ``2**32``.
    """
    plan = _Plan("dif_stages_lazy" + ("+shoup" if shoup else ""), q, log_n,
                 word_bits)
    two_q = 2 * q
    cur = Interval.upto(2 * q - 1 if entry_hi is None else entry_hi)
    plan.report.stage_bounds.append(cur.hi)
    for stage in range(log_n):
        plan.stage = stage
        u = v = cur
        total = plan.intermediate(u.add(v), "total = u + v")
        if not skip_total_clamp:
            total = plan.cond_sub(total, two_q, "clamp(total)")
        if v.hi > u.lo + two_q:
            plan.error(
                "S001",
                f"(u + 2q) - v may wrap below zero: v bound {v.hi} "
                f"exceeds u_min + 2q = {u.lo + two_q}")
        diff = plan.intermediate(u.add_const(two_q), "diff = (u + 2q) - v")
        last = stage == log_n - 1
        if last:
            # Final stage twiddle is omega**0 == 1: clamp the raw diff.
            if not skip_diff_clamp:
                diff = plan.cond_sub(diff, two_q, "clamp(diff)")
            out = diff
        elif shoup:
            out = plan.shoup_mul(diff, "diff * tw (Shoup)")
        else:
            out = plan.mul_mod(diff, q - 1, "diff * tw % q")
        cur = total.union(out)
        plan.report.stage_bounds.append(cur.hi)
        # Per-stage invariant: lanes must re-enter below 2q or the next
        # stage's derivation no longer holds.
        if cur.hi > two_q - 1:
            plan.error("S004",
                       f"lane bound {cur.hi} escapes the < 2q invariant "
                       f"({two_q})")
    plan.stage = log_n - 1
    return plan.finish(cur, 2 * q - 1, "dif lazy output")


def analyze_dit_lazy(log_n: int, q: int, *, shoup: bool,
                     entry_hi: int | None = None,
                     skip_total_clamp: bool = False,
                     skip_diff_clamp: bool = False,
                     word_bits: int = 64) -> PlanReport:
    """Mirror of :func:`repro.ntt.cooley_tukey.dit_stages_lazy`.

    Entry and per-stage invariant ``< 2q``; both butterfly halves are
    clamped because a DIT stage mixes previous sum *and* difference
    lanes.  Declared output: ``< 2q``.

    The plan runs these stages in the two calls per row block that
    :func:`analyze_dif_lazy` describes, the short spans (on the
    transposed view) first; one walk over all ``log_n`` stages covers
    both, and the span-1 stage, whose twiddle is 1, is ``stage == 0``.
    ``word_bits=32`` mirrors ``kernels.c``'s ``inv_row``, as for
    :func:`analyze_dif_lazy`.
    """
    plan = _Plan("dit_stages_lazy" + ("+shoup" if shoup else ""), q, log_n,
                 word_bits)
    two_q = 2 * q
    cur = Interval.upto(2 * q - 1 if entry_hi is None else entry_hi)
    plan.report.stage_bounds.append(cur.hi)
    for stage in range(log_n):
        plan.stage = stage
        u = vin = cur
        if stage == 0:
            v = vin  # stage-0 twiddle is omega**0 == 1
        elif shoup:
            v = plan.shoup_mul(vin, "vin * tw (Shoup)")
        else:
            v = plan.mul_mod(vin, q - 1, "vin * tw % q")
        total = plan.intermediate(u.add(v), "total = u + v")
        if not skip_total_clamp:
            total = plan.cond_sub(total, two_q, "clamp(total)")
        if v.hi > u.lo + two_q:
            plan.error(
                "S001",
                f"(u + 2q) - v may wrap below zero: v bound {v.hi} "
                f"exceeds u_min + 2q = {u.lo + two_q}")
        diff = plan.intermediate(u.add_const(two_q), "diff = (u + 2q) - v")
        if not skip_diff_clamp:
            diff = plan.cond_sub(diff, two_q, "clamp(diff)")
        cur = total.union(diff)
        plan.report.stage_bounds.append(cur.hi)
        if cur.hi > two_q - 1:
            plan.error("S004",
                       f"lane bound {cur.hi} escapes the < 2q invariant "
                       f"({two_q})")
    plan.stage = log_n - 1
    return plan.finish(cur, 2 * q - 1, "dit lazy output")


def analyze_dit_unclamped(log_n: int, q: int,
                          entry_hi: int | None = None) -> PlanReport:
    """Mirror of :func:`repro.ntt.cooley_tukey.dit_stages_unclamped`.

    No per-stage clamps: the twiddled half is freshly reduced (``< q``)
    at every stage except stage 0 (identity twiddle), so lanes grow by
    exactly ``+q`` per stage from the ``< q`` entry — after stage ``s``
    the bound is ``(s + 2)q - 1``.  The declared output is the growth
    schedule itself, not ``< q``; callers must finish with one true
    reduction (checked by :func:`analyze_batched_inverse`).

    The plan runs these stages in the two calls per row block that
    :func:`analyze_dif_lazy` describes, the short spans (on the
    transposed view) first; one walk over all ``log_n`` stages covers
    both, and the span-1 stage, whose twiddle is 1, is ``stage == 0``.
    """
    plan = _Plan("dit_stages_unclamped", q, log_n)
    cur = Interval.upto(q - 1 if entry_hi is None else entry_hi)
    plan.report.stage_bounds.append(cur.hi)
    for stage in range(log_n):
        plan.stage = stage
        u = vin = cur
        if stage == 0:
            v = vin
        else:
            v = plan.mul_mod(vin, q - 1, "vin * tw % q")
        total = plan.intermediate(u.add(v), "u + v")
        diff = plan.intermediate(u.add_const(q), "(u + q) - v")
        cur = total.union(diff)
        plan.report.stage_bounds.append(cur.hi)
    plan.stage = log_n - 1
    # Output bound = the derived growth schedule; nothing to compare
    # against beyond uint64 fit (already checked per intermediate).
    return plan.finish(cur, cur.hi, "dit unclamped output")


def analyze_shoup_scale(q: int, entry_hi: int) -> PlanReport:
    """A pointwise Shoup scaling: the compiled NTTs' psi fold or unfold.

    One Shoup product of lanes up to ``entry_hi``, on ``kernels.c``'s
    32-bit lane words.  Declared output: ``< 2q``."""
    plan = _Plan("shoup_scale", q, 0, 32)
    out = plan.shoup_mul(Interval.upto(entry_hi), "lanes * scale (Shoup)")
    return plan.finish(out, 2 * q - 1, "shoup scale output")


def analyze_fold(q: int, *, shift: int = 32,
                 skip_subtract: bool = False) -> PlanReport:
    """Mirror of ``kernels.c``'s ``fold`` of any uint64 ``z`` below ``q``.

    ``z = hi 2**shift + lo`` is congruent to ``hi c + lo`` with ``c =
    2**shift mod q``; each term is a Shoup product (by ``c`` and by 1),
    so both halves must sit below the ``2**32`` radix (``S003``) and
    ``q`` below ``2**30`` (``S002``).  The < 4q sum takes two
    conditional subtracts, by 2q and by q.  Declared output: ``< q``.
    The lanes are 32-bit words, as in ``kernels.c``.
    """
    plan = _Plan("fold", q, 0, 32)
    hi = plan.shoup_mul(Interval.upto(U64_MAX >> shift), "hi * c (Shoup)")
    lo = plan.shoup_mul(Interval.upto((1 << shift) - 1), "lo * 1 (Shoup)")
    total = plan.intermediate(hi.add(lo), "hi c + lo")
    plan.report.stage_bounds = [U64_MAX, total.hi]
    out = plan.cond_sub(total, 2 * q, "subtract 2q")
    if not skip_subtract:
        out = plan.cond_sub(out, q, "subtract q")
    return plan.finish(out, q - 1, "fold output")


def analyze_barrett_w(q: int, *, pre_shift: int | None = None,
                      post_shift: int | None = None,
                      skip_subtract: bool = False) -> PlanReport:
    """Mirror of ``kernels.c``'s ``mulmod``, a w-bit Barrett.

    The Barrett of the lane model
    (:class:`repro.arith.barrett.BarrettReducer`) on ``z = a b``, ``a,
    b < q``.

    With ``w`` the width of ``q`` and ``u = floor(2**(2w) / q)``, the
    estimate is ``((z >> (w - 1)) u) >> (w + 1)`` (``pre_shift`` /
    ``post_shift`` override the two shifts).  Checked: ``q`` below
    ``2**30`` (``S002``); every product is 32 x 32 -> 64 — ``z >> (w -
    1)``, ``u`` and the estimate below ``2**32`` (``S003``); the
    estimate never exceeds ``floor(z / q)``, else ``z - est q`` wraps
    (``S001``); and the remainder's exact worst case over ``z <
    2**(2w)``, from the two floors' rounding, stays below ``3q`` so
    that two conditional subtracts reduce it (``S005`` on the output
    otherwise).  For the true shifts the worst case is below ``q (z /
    2**(2w) + (2**(w-1) - 1) / q + 1) < 3q`` at every ``q``: the bound
    behind the gate.  The lanes are 32-bit words, as in ``kernels.c``:
    ``z`` and the estimate's product are widened, and the remainder,
    taken in the low word, must fit it.
    """
    plan = _Plan("barrett_w", q, 0, 32)
    w = q.bit_length()
    s1 = w - 1 if pre_shift is None else pre_shift
    s2 = w + 1 if post_shift is None else post_shift
    exp = 2 * w
    u = (1 << exp) // q
    if q >= (1 << 30):
        plan.error("S002", f"barrett_w: host moduli are below 2**30, q={q}")
    z_hi = (1 << exp) - 1  # a b <= (q - 1)**2 < 2**(2w)
    est_hi = ((z_hi >> s1) * u) >> s2
    for what, value in (("z >> (w - 1)", z_hi >> s1), ("u", u),
                        ("estimate", est_hi)):
        if value >= _SHOUP_RADIX:
            plan.error("S003", f"{what}: bound {value} is not a 32-bit "
                               f"multiplicand")
    plan.intermediate(Interval.upto(z_hi >> s1).mul(Interval.const(u)),
                      "(z >> (w - 1)) * u", wide=True)
    if s1 + s2 < exp:
        plan.error("S001", f"estimate may exceed floor(z / q): shifts "
                           f"{s1} + {s2} < {exp}, z - est * q wraps")
        plan.report.stage_bounds = [z_hi, U64_MAX]
        return plan.finish(Interval.upto(U64_MAX), q - 1, "barrett output")
    # est >= ((z - 2**s1 + 1) u / 2**s1 - 2**s2 + 1) / 2**s2, so
    # z - est q is at most this bound (times 2**(s1 + s2)), linear in z
    # with a coefficient >= 0 (q u <= 2**exp), largest at z_hi.
    bound = (z_hi * ((1 << (s1 + s2)) - q * u) + q * u * ((1 << s1) - 1)
             + (q * ((1 << s2) - 1) << s1))
    rem = plan.intermediate(Interval.upto(bound >> (s1 + s2)),
                            "z - est * q")
    plan.report.stage_bounds = [z_hi, rem.hi]
    out = plan.cond_sub(rem, 2 * q, "subtract 2q")
    if not skip_subtract:
        out = plan.cond_sub(out, q, "subtract q")
    return plan.finish(out, q - 1, "barrett output")


def analyze_batched_forward(log_n: int, q: int) -> PlanReport:
    """Mirror of the forward transform of one batch plan
    (:meth:`repro.ntt.negacyclic.BatchedNegacyclicNtt.forward`, which
    the compiled kernels run too): psi folding, lazy DIF stages, one
    final conditional subtract.

    Selects the Shoup variant below ``2**30``, the host limit, as every
    plan's fast path does.  Declared output: fully reduced (``< q``).
    """
    shoup = q < (1 << 30)
    plan = _Plan("batched_forward" + ("+shoup" if shoup else ""), q, log_n)
    entry = Interval.reduced(q)
    if shoup:
        folded = plan.shoup_mul(entry, "psi fold (Shoup)")
    else:
        folded = plan.mul_mod(entry, q - 1, "x * psi % q")
    inner = analyze_dif_lazy(log_n, q, shoup=shoup, entry_hi=folded.hi)
    plan.report.findings.extend(inner.findings)
    plan.report.stage_bounds = [folded.hi] + inner.stage_bounds[1:]
    plan.report.max_intermediate = max(plan.report.max_intermediate,
                                       inner.max_intermediate)
    plan.stage = log_n - 1
    out = plan.cond_sub(Interval.upto(inner.output_bound), q,
                        "final conditional subtract")
    return plan.finish(out, q - 1, "batched forward output")


def analyze_batched_inverse(log_n: int, q: int, *,
                            unclamped: bool) -> PlanReport:
    """Mirror of the inverse transform of one batch plan
    (:meth:`repro.ntt.negacyclic.BatchedNegacyclicNtt.inverse`; the
    compiled kernels run its lazy Shoup form): reduced entry, DIT
    stages, fused ``psi^{-1} n^{-1}`` scaling with one true reduction.
    Declared output: ``< q``.

    This is the analysis behind the production gate
    :func:`repro.analysis.bounds.unclamped_dit_ok`, which the plan asks
    once to pick numpy's ``inv_mode``.
    """
    shoup = q < (1 << 30)
    name = "batched_inverse+" + ("unclamped" if unclamped else
                                 ("lazy+shoup" if shoup else "lazy"))
    plan = _Plan(name, q, log_n)
    if unclamped:
        inner = analyze_dit_unclamped(log_n, q, entry_hi=q - 1)
    else:
        inner = analyze_dit_lazy(log_n, q, shoup=shoup, entry_hi=q - 1)
    plan.report.findings.extend(inner.findings)
    plan.report.stage_bounds = list(inner.stage_bounds)
    plan.report.max_intermediate = inner.max_intermediate
    plan.stage = log_n - 1
    lanes = Interval.upto(inner.output_bound)
    if not unclamped and shoup:
        # Shoup unfold to [0, 2q), then one conditional subtract.
        scaled = plan.shoup_mul(lanes, "unfold * psi_inv*n_inv (Shoup)")
        out = plan.cond_sub(scaled, q, "final conditional subtract")
    else:
        out = plan.mul_mod(lanes, q - 1, "lanes * scale % q")
    return plan.finish(out, q - 1, "batched inverse output")


def analyze_keyswitch_accumulate(num_digits: int, max_q: int, *,
                                 lazy: bool = True) -> PlanReport:
    """Mirror of :func:`repro.fhe.keyswitch.accumulate_keyswitch`.

    Lazy mode: ``num_digits`` raw digit-by-key products accumulate
    unreduced before a single ``%``; the accumulator bound is exactly
    ``num_digits * (q - 1)**2``.  Non-lazy mode still forms each raw
    product before its per-digit reduction, so the per-product uint64
    fit is checked either way.
    """
    name = f"keyswitch_accumulate[{'lazy' if lazy else 'per-digit'}]"
    plan = _Plan(name, max_q, num_digits)
    acc = Interval.const(0)
    product = Interval.reduced(max_q).mul(Interval.reduced(max_q))
    plan.report.stage_bounds.append(0)
    for digit in range(num_digits):
        plan.stage = digit
        plan.intermediate(product, "digit * key product")
        if lazy:
            acc = plan.intermediate(acc.add(product), "acc += product")
        else:
            acc = plan.intermediate(
                acc.add(product.mod(max_q)), "acc += product % q")
        plan.report.stage_bounds.append(acc.hi)
    plan.stage = num_digits - 1
    out = acc.mod(max_q)
    return plan.finish(out, max_q - 1, "accumulator after final %")
