"""Unit tests of the serving-layer primitives (deadline, limits,
breaker, admission)."""

import asyncio

import pytest

from repro.serve.admission import AdmissionController
from repro.serve.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)
from repro.serve.deadline import Deadline, with_deadline
from repro.serve.errors import DeadlineExceeded
from repro.serve.limits import RetryBudget, RetryPolicy, TokenBucket


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestDeadline:
    def test_remaining_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock)
        assert deadline.remaining() == pytest.approx(1.0)
        clock.advance(0.6)
        assert deadline.remaining() == pytest.approx(0.4)
        assert not deadline.expired()
        clock.advance(0.5)
        assert deadline.remaining() == 0.0
        assert deadline.expired()

    def test_bounded_caps_per_attempt(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock)
        attempt = deadline.bounded(0.25)
        assert attempt.remaining() == pytest.approx(0.25)
        # Near expiry the attempt inherits the smaller request budget.
        clock.advance(0.9)
        assert deadline.bounded(0.25).remaining() == pytest.approx(0.1)

    def test_with_deadline_passes_value(self):
        async def work():
            return 41 + 1

        async def main():
            return await with_deadline(work(), Deadline.after(1.0))

        assert asyncio.run(main()) == 42

    def test_with_deadline_cancels_and_types_timeout(self):
        cancelled = asyncio.Event()

        async def hang():
            try:
                await asyncio.Event().wait()
            except asyncio.CancelledError:
                cancelled.set()
                raise

        async def main():
            with pytest.raises(DeadlineExceeded):
                await with_deadline(hang(), Deadline.after(0.01))
            # Cancellation reached the wrapped task before we resumed.
            assert cancelled.is_set()

        asyncio.run(main())


class TestTokenBucket:
    def test_burst_then_starve_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(0.1)
        clock.advance(0.1)
        assert bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=clock)
        clock.advance(10.0)
        assert bucket.try_acquire(3.0)
        assert not bucket.try_acquire()

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)


class TestRetryBudget:
    def test_spend_down_then_earn_back(self):
        budget = RetryBudget(ratio=0.5, initial=1.0, cap=2.0)
        assert budget.try_spend()
        assert not budget.try_spend()
        budget.deposit()
        budget.deposit()  # 2 completions x 0.5 = one retry earned
        assert budget.try_spend()

    def test_cap(self):
        budget = RetryBudget(ratio=1.0, initial=0.0, cap=1.5)
        for _ in range(10):
            budget.deposit()
        assert budget.balance == pytest.approx(1.5)


class TestRetryPolicy:
    def test_deterministic_jitter(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        assert [a.delay(3, k) for k in (1, 2, 3)] == [
            b.delay(3, k) for k in (1, 2, 3)]

    def test_distinct_requests_decorrelate(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay(1, 1) != policy.delay(2, 1)

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base=0.01, multiplier=2.0, max_delay=0.02,
                             seed=0)
        # Jitter is in [0.5, 1.5), so the cap bounds every delay by
        # 1.5 * max_delay.
        for attempt in range(1, 8):
            assert policy.delay(0, attempt) < 0.03


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=1.0,
                                 clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()
        assert breaker.opened_total == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED

    def test_half_open_probe_recovers(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.5,
                                 probe_limit=1, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(0.6)
        assert breaker.state == STATE_HALF_OPEN
        assert breaker.allow()          # the probe slot
        assert not breaker.allow()      # only one probe at a time
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.5,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(0.6)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.opened_total == 2


class TestAdmission:
    def test_capacity_scales_with_health(self):
        health = [1.0]
        controller = AdmissionController(100, health=lambda: health[0])
        assert controller.capacity() == 100
        health[0] = 0.5
        assert controller.capacity() == 50
        health[0] = 0.0
        assert controller.capacity() == 1  # min_capacity floor

    def test_admit_against_depth(self):
        controller = AdmissionController(4)
        assert controller.admit(3)
        assert not controller.admit(4)

    def test_retry_after_grows_with_backlog(self):
        controller = AdmissionController(10)
        shallow = controller.retry_after(depth=12, workers=2)
        deep = controller.retry_after(depth=50, workers=2)
        assert deep > shallow > 0
