"""Admission control: bounded queues scaled by backend health.

The controller owns one number — the queue-depth cap — and shrinks it
with backend capacity: ``capacity = queue_limit * health_fraction``,
where the health fraction is whatever the executor's optional
``health()`` reports (1.0 without one).  Lost capacity therefore sheds
queued work *proactively* instead of letting latency grow until
deadlines do the shedding.

Rejections carry a ``retry_after`` estimate derived from Little's law:
current backlog divided by observed drain rate.

The controller is also the consumer of the SLO engine's typed alerts
(:class:`~repro.obs.slo.SloAlert`): :meth:`AdmissionController
.note_slo_alert` folds burn-rate pressure into a multiplicative
capacity scale, so a tenant burning its error budget sheds load at the
door instead of burning deadline timeouts.  The wiring is explicit —
the serving loop (or operator) calls ``note_slo_alert`` with whatever
``SloEngine.evaluate`` fired; nothing here reads the obs hook, keeping
the obs-off path byte-for-byte identical.
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
        #: Multiplicative capacity scale under SLO pressure (1.0 = no
        #: pressure); shrunk by :meth:`note_slo_alert`, restored by
        #: :meth:`clear_slo_pressure`.
        self.slo_scale = 1.0

    def capacity(self) -> int:
        """Current queue-depth cap, shrunk by backend health and SLO
        pressure."""
        fraction = min(1.0, max(0.0, self.health())) * self.slo_scale
        return max(self.min_capacity, int(self.queue_limit * fraction))

    def note_slo_alert(self, alert) -> float:
        """Fold one fired :class:`~repro.obs.slo.SloAlert` into the
        capacity scale: page-severity burn shrinks hard (x0.7, floor
        0.25), anything else gently (x0.9, floor 0.5).  Returns the new
        scale."""
        if alert.severity == "page":
            self.slo_scale = max(0.25, self.slo_scale * 0.7)
        else:
            self.slo_scale = max(0.5, self.slo_scale * 0.9)
        return self.slo_scale

    def clear_slo_pressure(self) -> None:
        """Restore full capacity once the alerts stop firing."""
        self.slo_scale = 1.0

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
