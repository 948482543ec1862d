"""The unsigned interval domain of the micro-program walk
(:mod:`repro.analysis.program_check`).

Bounds are exact Python integers (never numpy scalars), so products of
two 63-bit quantities do not wrap during the *analysis* — detecting that
they would wrap in the uint64 datapath is the whole point.

Two layers:

* :class:`Interval` — one ``[lo, hi]`` range (inclusive ends).
* :class:`IntervalVec` — one interval per VPU lane, with the lane-wise
  product, so per-lane constants (twiddle vectors) keep
  their exact values through the walk instead of collapsing to a
  register-wide bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

U64_MAX: int = (1 << 64) - 1


@dataclass(frozen=True)
class Interval:
    """An inclusive unsigned range ``[lo, hi]``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0:
            raise ValueError(f"interval lower bound negative: {self.lo}")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value: int) -> "Interval":
        """The singleton interval ``[value, value]``."""
        return Interval(value, value)

    @staticmethod
    def reduced(q: int) -> "Interval":
        """A fully reduced residue: ``[0, q - 1]``."""
        return Interval(0, q - 1)

    @staticmethod
    def upto(hi: int) -> "Interval":
        """``[0, hi]``."""
        return Interval(0, hi)


class IntervalVec:
    """Per-lane intervals for one register row (or memory row).

    Stored as two parallel tuples of Python ints, one ``(lo, hi)`` pair
    per lane.  Twiddle vectors construct exact singleton lanes, which
    keeps the product bounds tight in the micro-program walk.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[int], hi: Sequence[int]):
        if len(lo) != len(hi):
            raise ValueError("lo/hi length mismatch")
        self.lo = tuple(int(v) for v in lo)
        self.hi = tuple(int(v) for v in hi)
        for a, b in zip(self.lo, self.hi):
            if a < 0 or a > b:
                raise ValueError(f"bad lane interval [{a}, {b}]")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def uniform(m: int, interval: Interval) -> "IntervalVec":
        return IntervalVec((interval.lo,) * m, (interval.hi,) * m)

    @staticmethod
    def reduced(m: int, q: int) -> "IntervalVec":
        return IntervalVec.uniform(m, Interval.reduced(q))

    @staticmethod
    def exact(values: Iterable[int]) -> "IntervalVec":
        vals = tuple(int(v) for v in values)
        return IntervalVec(vals, vals)

    # -- views -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.lo)

    def lane(self, i: int) -> Interval:
        return Interval(self.lo[i], self.hi[i])

    @property
    def max_hi(self) -> int:
        return max(self.hi)

    def every(self, i: int, step: int) -> "IntervalVec":
        """Strided lane view ``[i::step]`` (butterfly halves)."""
        return IntervalVec(self.lo[i::step], self.hi[i::step])

    def permute(self, src_of_dst: Sequence[int]) -> "IntervalVec":
        """Route lanes: destination lane ``d`` takes lane
        ``src_of_dst[d]``."""
        return IntervalVec([self.lo[s] for s in src_of_dst],
                           [self.hi[s] for s in src_of_dst])

    @staticmethod
    def interleave(even: "IntervalVec", odd: "IntervalVec") -> "IntervalVec":
        """Zip two half-width vectors back into adjacent-pair order."""
        if len(even) != len(odd):
            raise ValueError("half lengths differ")
        lo: list[int] = []
        hi: list[int] = []
        for i in range(len(even)):
            lo.extend((even.lo[i], odd.lo[i]))
            hi.extend((even.hi[i], odd.hi[i]))
        return IntervalVec(lo, hi)

    # -- lane-wise product -----------------------------------------------

    def mul(self, other: "IntervalVec") -> "IntervalVec":
        if len(self) != len(other):
            raise ValueError(
                f"lane count mismatch: {len(self)} vs {len(other)}")
        return IntervalVec([a * b for a, b in zip(self.lo, other.lo)],
                           [a * b for a, b in zip(self.hi, other.hi)])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        worst = max(self.hi)
        return f"IntervalVec(m={len(self)}, max_hi={worst})"
