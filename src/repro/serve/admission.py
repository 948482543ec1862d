"""Admission control: bounded queues scaled by backend health.

The controller owns one number — the queue-depth cap — and shrinks it
with backend capacity: ``capacity = queue_limit * health_fraction``,
where the health fraction is whatever the executor's optional
``health()`` reports (1.0 without one).  Lost capacity therefore sheds
queued work *proactively* instead of letting latency grow until
deadlines do the shedding.

Rejections carry a ``retry_after`` estimate derived from Little's law:
current backlog divided by observed drain rate.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["AdmissionController"]


class AdmissionController:
    """Queue-depth gate with health-scaled capacity."""

    def __init__(self, queue_limit: int,
                 health: Callable[[], float] | None = None,
                 min_capacity: int = 1):
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.queue_limit = queue_limit
        self.health = health if health is not None else (lambda: 1.0)
        self.min_capacity = min_capacity
        #: Exponentially-smoothed per-request service estimate feeding
        #: the retry_after hint (seconds).
        self.service_estimate = 0.001
        self._alpha = 0.05

    def capacity(self) -> int:
        """Current queue-depth cap, shrunk by backend health."""
        fraction = min(1.0, max(0.0, self.health()))
        return max(self.min_capacity, int(self.queue_limit * fraction))

    def admit(self, depth: int) -> bool:
        """May a request join a queue currently ``depth`` deep?"""
        return depth < self.capacity()

    def observe_service(self, seconds: float) -> None:
        """Fold one completed request's service time into the drain
        estimate."""
        if seconds > 0:
            self.service_estimate += self._alpha * (seconds
                                                    - self.service_estimate)

    def retry_after(self, depth: int, workers: int) -> float:
        """Little's-law hint: time for the backlog beyond capacity to
        drain through ``workers`` parallel servers."""
        excess = max(1, depth - self.capacity() + 1)
        return excess * self.service_estimate / max(1, workers)
