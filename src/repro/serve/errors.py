"""Typed failure vocabulary of the serving layer.

Every way a request can fail to produce a level-0 result has a named
exception class, because the robustness contract the chaos campaign
enforces is *typed resolution*: a request may be retried, degraded,
rejected, or timed out — but never hung, and never failed with an
anonymous error.  :class:`ServeError` subclasses never escape
:meth:`repro.serve.engine.ServeEngine.submit`; they are folded into the
returned :class:`~repro.serve.requests.ServeResult` with the exception
class name as the ``error`` field.
"""

from __future__ import annotations

__all__ = [
    "CircuitOpenError",
    "DeadlineExceeded",
    "EngineClosedError",
    "RejectedError",
    "RetryBudgetExhausted",
    "ServeError",
]


class ServeError(Exception):
    """Base class for every typed serving-layer failure."""


class DeadlineExceeded(ServeError):
    """The request (or one attempt of it) outlived its deadline.

    Raised by :func:`repro.serve.deadline.with_deadline` when the
    wrapped awaitable is cancelled at the deadline — the only sanctioned
    way backend work times out."""


class RejectedError(ServeError):
    """Admission control refused the request before any work ran.

    ``reason`` is one of ``"rate_limited"`` / ``"overloaded"`` and
    ``retry_after`` is the server's hint (seconds) for when capacity is
    expected back.
    """

    def __init__(self, reason: str, retry_after: float):
        super().__init__(f"rejected ({reason}); retry after "
                         f"{retry_after * 1e3:.1f} ms")
        self.reason = reason
        self.retry_after = retry_after


class RetryBudgetExhausted(ServeError):
    """The tenant's retry budget is spent; the attempt will not be
    replayed (the ladder may still degrade it)."""


class CircuitOpenError(ServeError):
    """The circuit breaker guarding a backend level is open and the
    request was not selected as a recovery probe."""


class EngineClosedError(ServeError):
    """The engine is draining or closed; no new work is accepted."""
