"""Deadline propagation and the sanctioned cancellation wrapper.

A :class:`Deadline` is an absolute expiry on a monotonic clock, created
once at admission and carried by the request through every queue hop,
retry, and degradation step — remaining budget shrinks as wall time
passes, it is never reset per attempt.

:func:`with_deadline` is the **only** way serving code may await
backend work (kernel dispatch, keyswitch, NTT batches, executor calls):
it bounds the awaitable by the deadline's remaining budget and converts
the timeout into the typed
:class:`~repro.serve.errors.DeadlineExceeded`, cancelling the wrapped
task so no work outlives its request.  An attempt awaited without it
outlives a dropped completion: ``test_dropped_completion_retried``
(``tests/test_serve_engine.py``) then never finishes.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, TypeVar

from repro.serve.errors import DeadlineExceeded

T = TypeVar("T")

__all__ = ["Deadline", "with_deadline"]


class Deadline:
    """An absolute expiry instant on a monotonic clock."""

    __slots__ = ("expires_at", "clock")

    def __init__(self, expires_at: float,
                 clock: Callable[[], float] = time.monotonic):
        self.expires_at = expires_at
        self.clock = clock

    @classmethod
    def after(cls, timeout: float,
              clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """A deadline ``timeout`` seconds from now."""
        return cls(clock() + timeout, clock)

    def remaining(self) -> float:
        """Seconds left before expiry (clamped at zero)."""
        return max(0.0, self.expires_at - self.clock())

    def expired(self) -> bool:
        return self.clock() >= self.expires_at

    def bounded(self, cap: float) -> "Deadline":
        """A per-attempt sub-deadline: ``min(this deadline, now + cap)``.

        Retries carve their attempt timeout out of the request's
        remaining budget — an attempt can never extend the request.
        """
        return Deadline(min(self.expires_at, self.clock() + cap), self.clock)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Deadline(remaining={self.remaining():.4f}s)"


async def with_deadline(awaitable: Awaitable[T], deadline: Deadline) -> T:
    """Await ``awaitable`` for at most the deadline's remaining budget.

    On expiry the inner task is cancelled (asyncio guarantees the
    cancellation is delivered before :class:`TimeoutError` propagates)
    and the typed :class:`DeadlineExceeded` is raised, so the caller
    can classify the failure without string matching.  An
    already-expired deadline still lets an already-completed awaitable
    return its value — a finished result is never discarded.
    """
    try:
        return await asyncio.wait_for(awaitable, timeout=deadline.remaining())
    except asyncio.TimeoutError:
        raise DeadlineExceeded(
            f"deadline expired (budget exhausted at "
            f"{deadline.expires_at:.6f})") from None
