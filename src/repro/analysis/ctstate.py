"""Ciphertext-state abstract interpretation of recorded op sequences.

The scheme evaluators (:mod:`repro.fhe.ckks`, :mod:`repro.fhe.bgv`,
:mod:`repro.fhe.bfv`) catch *some* misuse at run time (scale mismatch
raises) but silently tolerate the rest: a dropped rescale overflows the
scale into the modulus, an implicit level alignment hides a scheduling
bug, and noise-budget exhaustion only shows up as garbage plaintext.
This pass steps a small abstract domain — RNS level, log2 scale,
NTT/coefficient domain, ciphertext size, and a noise-bit bound from
:class:`repro.fhe.noise.NoiseEstimator` — over a recorded sequence of
scheme ops *before* anything executes.  It is the verification
substrate the ring-program planner (ROADMAP item 3) targets: a planner
may reorder ops only if the checked states are unchanged.

The program format — :class:`~repro.fhe.program.Op`, the op table and
the executor — lives in :mod:`repro.fhe.program`; this module holds only
the abstract side.  :func:`check_sequence` interprets a sequence and
returns a :class:`CtStateReport` that carries the ops it judged, and
that report is the only thing :class:`~repro.fhe.program.ProgramExecutor`
accepts: it raises :class:`CtStateError` on a verdict with findings, so
executing an unverified sequence cannot be expressed.
:func:`run_checked` is the two-step composition.

Rules
-----

============ ======== =========================================================
``C001``     error    operand levels differ (the evaluator would silently
                      mod-reduce — a compiled plan must align explicitly)
``C002``     error    scale overflow: log2(scale) reaches the modulus budget
                      of the value's level (a dropped rescale); poisons
``C003``     error    addition scale mismatch beyond the 1 % log2 tolerance
                      the CKKS evaluator enforces
``C004``     error    NTT/coeff domain mismatch for the op
``C005``     error    level underflow or an op the scheme does not support
``C006``     error    noise bound reaches the level's modulus budget; poisons
``C007``     error    ciphertext-size misuse (multiply of a non-relinearized
                      3-part value, relinearize of a 2-part, ...)
============ ======== =========================================================

Findings that *poison* mark the produced value: downstream ops propagate
the poison silently instead of cascading secondary findings, so one
seeded bug yields one finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from repro.analysis.findings import FindingList
from repro.fhe.program import (OP_TABLE, SCHEMES, Op, ProgramExecutor,
                               scheme_of)


@dataclass(frozen=True)
class CtState:
    """Abstract state of one ciphertext value."""

    level: int
    scale_log2: float
    domain: str          # "eval" | "coeff"
    size: int            # number of polynomial parts
    noise_bits: float
    poisoned: bool = False


@dataclass
class CtStateReport:
    """Outcome of one abstract interpretation."""

    label: str
    scheme: str
    #: The program this verdict is about.
    ops: tuple[Op, ...] = ()
    #: Abstract state of each produced value (None for unknown kinds).
    states: list[CtState | None] = field(default_factory=list)
    #: Tightest remaining noise budget (bits) over all produced values.
    min_budget_bits: float = math.inf
    findings: FindingList = field(default_factory=FindingList)

    @property
    def ok(self) -> bool:
        return self.findings.ok

    def raise_on_error(self) -> None:
        if not self.ok:
            raise CtStateError(self)


class CtStateError(RuntimeError):
    """A sequence failed verification (raised in place of executing it)."""

    def __init__(self, report: CtStateReport):
        self.report = report
        lines = [f"sequence {report.label!r} failed fhecheck "
                 f"({len(report.findings.errors)} errors):"]
        lines += [str(f) for f in report.findings.errors[:8]]
        super().__init__("\n".join(lines))


class _Interp:
    """One abstract pass over a sequence (shared by all three schemes)."""

    def __init__(self, params: Any, scheme: str, label: str):
        from repro.fhe.noise import NoiseEstimator

        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; "
                             f"choose from {sorted(SCHEMES)}")
        self.scheme = scheme
        self.t_bits = 0.0
        if hasattr(params, "ciphertext_params"):  # BgvParams
            self.t_bits = math.log2(params.plaintext_modulus)
            params = params.ciphertext_params()
        self.params = params
        self.est = NoiseEstimator(params.n, params.error_std)
        self.report = CtStateReport(label=label or f"<{scheme} sequence>",
                                    scheme=scheme)
        self.index = 0
        self.kind = ""

    # -- helpers -----------------------------------------------------------

    def _loc(self) -> str:
        return f"op {self.index}: {self.kind}"

    def _error(self, rule: str, message: str) -> None:
        self.report.findings.error("ctstate", rule, self._loc(), message)

    def q_bits(self, level: int) -> float:
        """log2 of the ciphertext modulus at ``level``."""
        if self.scheme == "bfv":
            level = self.params.levels - 1  # single invariant modulus
        return sum(math.log2(q)
                   for q in self.params.primes[:max(level, 0) + 1])

    def budget(self, level: int) -> float:
        return self.q_bits(level) - 1

    def _keyswitch_bits(self, level: int) -> float:
        return self.est.keyswitch_bits(
            digits=level + 1,
            digit_width_bits=self.params.prime_bits,
            special_bits=math.log2(self.params.special_prime))

    def _root_n_bits(self) -> float:
        return math.log2(math.sqrt(self.params.n))

    def _fresh(self) -> CtState:
        noise = self.est.fresh_bits()
        if self.scheme != "ckks":
            noise += self.t_bits  # error terms are scaled by t
        scale = float(self.params.scale_bits) if self.scheme == "ckks" else 0.0
        return CtState(level=self.params.levels - 1, scale_log2=scale,
                       domain="eval", size=2, noise_bits=noise)

    def _binary_levels(self, a: CtState, b: CtState) -> int:
        if a.level != b.level:
            self._error(
                "C001",
                f"operand levels differ ({a.level} vs {b.level}); the "
                f"evaluator would mod-reduce implicitly — align the plan")
        return min(a.level, b.level)

    def _require_domain(self, state: CtState, domain: str, what: str) -> None:
        if state.domain != domain:
            self._error(
                "C004",
                f"{what} needs a {domain}-domain operand, got "
                f"{state.domain}")

    def _require_size(self, state: CtState, size: int, what: str) -> bool:
        if state.size != size:
            self._error(
                "C007",
                f"{what} needs a {size}-part ciphertext, got "
                f"{state.size} parts")
            return False
        return True

    # -- per-op transfer functions -----------------------------------------

    def step(self, op: Op, states: list[CtState | None]) -> CtState | None:
        self.kind = op.kind
        spec = OP_TABLE.get(op.kind)
        if spec is None or self.scheme not in spec.run:
            self._error(
                "C005",
                f"op {op.kind!r} is not "
                + (f"supported by the {self.scheme} scheme" if spec
                   else "a known operation"))
            return None
        srcs: list[CtState] = []
        for index in op.srcs:
            state = states[index] if 0 <= index < len(states) else None
            if state is None:
                self._error("C005",
                            f"source value #{index} does not exist yet")
                return None
            srcs.append(state)
        if len(srcs) != spec.arity:
            self._error(
                "C005",
                f"op {op.kind!r} takes {spec.arity} source(s), "
                f"got {len(srcs)}")
            return None
        if any(s.poisoned for s in srcs):
            # Propagate silently: the upstream finding already fired.
            base = srcs[0]
            return replace(base, poisoned=True)
        out = getattr(self, f"_op_{op.kind}")(op, *srcs)
        if out is not None and not out.poisoned:
            out = self._postcheck(out)
        return out

    def _postcheck(self, state: CtState) -> CtState:
        budget = self.budget(state.level)
        if self.scheme == "ckks" and state.scale_log2 >= budget:
            self._error(
                "C002",
                f"scale 2^{state.scale_log2:.1f} overflows the level-"
                f"{state.level} modulus budget of {budget:.1f} bits "
                f"(missing rescale?)")
            return replace(state, poisoned=True)
        if state.noise_bits >= budget:
            self._error(
                "C006",
                f"noise bound {state.noise_bits:.1f} bits exhausts the "
                f"level-{state.level} budget of {budget:.1f} bits")
            return replace(state, poisoned=True)
        self.report.min_budget_bits = min(
            self.report.min_budget_bits,
            budget - max(state.noise_bits, state.scale_log2))
        return state

    def _op_encrypt(self, op: Op) -> CtState:
        return self._fresh()

    def _add_like(self, op: Op, a: CtState, b: CtState) -> CtState:
        level = self._binary_levels(a, b)
        if a.domain != b.domain:
            self._error("C004",
                        f"operand domains differ ({a.domain} vs {b.domain})")
        if (self.scheme == "ckks"
                and abs(a.scale_log2 - b.scale_log2) > 0.01):
            self._error(
                "C003",
                f"addition scale mismatch: 2^{a.scale_log2:.3f} vs "
                f"2^{b.scale_log2:.3f} (the evaluator rejects > 1% log2 "
                f"difference)")
        return CtState(level=level, scale_log2=a.scale_log2,
                       domain=a.domain, size=max(a.size, b.size),
                       noise_bits=self.est.add_bits(a.noise_bits,
                                                    b.noise_bits))

    _op_add = _add_like
    _op_sub = _add_like

    def _mult_noise(self, a: CtState, b: CtState) -> float:
        if self.scheme == "ckks":
            return self.est.multiply_bits(a.noise_bits, b.noise_bits,
                                          a.scale_log2, b.scale_log2)
        # Exact schemes: cross terms e_a * m_b with ||m|| < t.
        return (max(a.noise_bits, b.noise_bits) + self.t_bits
                + self._root_n_bits() + 1)

    def _op_tensor(self, op: Op, a: CtState, b: CtState) -> CtState:
        level = self._binary_levels(a, b)
        self._require_domain(a, "eval", "tensor")
        self._require_size(a, 2, "tensor")
        self._require_size(b, 2, "tensor")
        return CtState(level=level, scale_log2=a.scale_log2 + b.scale_log2,
                       domain="eval", size=3,
                       noise_bits=self._mult_noise(a, b))

    def _op_multiply(self, op: Op, a: CtState, b: CtState) -> CtState:
        out = self._op_tensor(op, a, b)
        ks = self._keyswitch_bits(out.level)
        return replace(out, size=2,
                       noise_bits=max(out.noise_bits, ks) + 1)

    def _op_relinearize(self, op: Op, a: CtState) -> CtState:
        if not self._require_size(a, 3, "relinearize"):
            return replace(a, size=2)
        ks = self._keyswitch_bits(a.level)
        return replace(a, size=2, noise_bits=max(a.noise_bits, ks) + 1)

    def _op_multiply_plain(self, op: Op, a: CtState) -> CtState:
        self._require_domain(a, "eval", "multiply_plain")
        pt_scale = float(self.params.scale_bits) \
            if self.scheme == "ckks" else 0.0
        noise = (a.noise_bits + (pt_scale or self.t_bits)
                 + self._root_n_bits())
        return replace(a, scale_log2=a.scale_log2 + pt_scale,
                       noise_bits=noise)

    def _op_rescale(self, op: Op, a: CtState) -> CtState:
        if a.level <= 0:
            self._error("C005",
                        "rescale at level 0: no chain prime left to drop")
            return replace(a, poisoned=True)
        dropped = math.log2(self.params.primes[a.level])
        return CtState(level=a.level - 1,
                       scale_log2=a.scale_log2 - dropped,
                       domain=a.domain, size=a.size,
                       noise_bits=self.est.rescale_bits(a.noise_bits,
                                                        dropped))

    def _op_mod_switch(self, op: Op, a: CtState) -> CtState:
        if a.level <= 0:
            self._error("C005",
                        "mod_switch at level 0: no chain prime left to drop")
            return replace(a, poisoned=True)
        dropped = math.log2(self.params.primes[a.level])
        floor = self.t_bits + self._root_n_bits()
        return replace(a, level=a.level - 1,
                       noise_bits=max(a.noise_bits - dropped, floor) + 1)

    def _galois(self, op: Op, a: CtState, what: str) -> CtState:
        self._require_size(a, 2, what)
        self._require_domain(a, "eval", what)
        ks = self._keyswitch_bits(a.level)
        return replace(a, noise_bits=max(a.noise_bits, ks) + 1)

    def _op_rotate(self, op: Op, a: CtState) -> CtState:
        return self._galois(op, a, "rotate")

    def _op_conjugate(self, op: Op, a: CtState) -> CtState:
        return self._galois(op, a, "conjugate")

    def _op_mod_reduce(self, op: Op, a: CtState) -> CtState:
        target = op.arg if op.arg is not None else a.level - 1
        if target < 0 or target > a.level:
            self._error(
                "C005",
                f"mod_reduce to level {target} from level {a.level}")
            return replace(a, poisoned=True)
        return replace(a, level=target)

    def _op_ntt(self, op: Op, a: CtState) -> CtState:
        self._require_domain(a, "coeff", "ntt")
        return replace(a, domain="eval")

    def _op_intt(self, op: Op, a: CtState) -> CtState:
        self._require_domain(a, "eval", "intt")
        return replace(a, domain="coeff")


def check_sequence(ops: Sequence[Op], params: Any, *,
                   scheme: str = "ckks",
                   label: str = "") -> CtStateReport:
    """Abstractly interpret a recorded op sequence.

    ``params`` is a :class:`~repro.fhe.params.CkksParams` for CKKS, or a
    :class:`~repro.fhe.bgv.BgvParams` for the exact schemes (the chain
    is unwrapped via ``ciphertext_params()``).  Returns a
    :class:`CtStateReport`; ``report.ok`` is False when any finding
    fired.
    """
    interp = _Interp(params, scheme, label)
    interp.report.ops = tuple(ops)
    states: list[CtState | None] = []
    for index, op in enumerate(ops):
        interp.index = index
        states.append(interp.step(op, states))
    interp.report.states = states
    return interp.report


def run_checked(ops: Sequence[Op], ctx: Any, inputs: Sequence[Any], *,
                label: str = "") -> list[Any]:
    """Verify, then execute: the values of ``ops`` run on ``ctx``.

    ``inputs`` supplies one array per ``encrypt`` / ``multiply_plain``
    op.  Raises :class:`CtStateError` (carrying the full report) instead
    of executing when the abstract interpreter finds anything.
    """
    report = check_sequence(ops, ctx.params, scheme=scheme_of(ctx),
                            label=label)
    return ProgramExecutor(report, ctx, inputs).run()


# ---------------------------------------------------------------------------
# Canonical workload sequences (used by the CLI and the mutation tests).
# ---------------------------------------------------------------------------


def ckks_mult_rotate_sequence(levels: int) -> list[Op]:
    """Encrypt two vectors, multiply/rescale down the chain, rotate.

    The canonical deep-pipeline shape: ``levels - 1`` multiply+rescale
    rounds (each consumes one chain prime) and a final rotation.
    """
    ops = [Op("encrypt"), Op("encrypt")]
    current = 0
    other = 1
    for _ in range(max(levels - 1, 1)):
        ops.append(Op("multiply", (current, other)))
        ops.append(Op("rescale", (len(ops) - 1,)))
        current = other = len(ops) - 1
    ops.append(Op("rotate", (current,), arg=1))
    return ops


def bgv_mult_switch_sequence(levels: int) -> list[Op]:
    """BGV: multiply then explicitly mod-switch, down the chain."""
    ops = [Op("encrypt"), Op("encrypt")]
    current, other = 0, 1
    for _ in range(max(levels - 1, 1)):
        ops.append(Op("multiply", (current, other)))
        ops.append(Op("mod_switch", (len(ops) - 1,)))
        current = other = len(ops) - 1
    return ops


def bfv_mult_add_sequence() -> list[Op]:
    """BFV: scale-invariant multiply plus an addition."""
    return [
        Op("encrypt"), Op("encrypt"),
        Op("multiply", (0, 1)),
        Op("add", (2, 0)),
    ]
