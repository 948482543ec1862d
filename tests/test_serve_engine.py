"""Engine behavior tests: the request path end to end, failure modes
forced one at a time through handcrafted chaos plans."""

import asyncio

import numpy as np
import pytest

from repro.serve.chaos import ChaosInjector, ChaosPlan
from repro.serve.deadline import Deadline
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.errors import EngineClosedError
from repro.serve.executor import (SERVED_PROGRAM, CkksOpExecutor,
                                  SimulatedExecutor)
from repro.serve.requests import (
    OPS,
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    ServeRequest,
)


def _request(request_id: int, op: str = "hmult", timeout: float = 2.0,
             tenant: str = "t0") -> ServeRequest:
    return ServeRequest(request_id, tenant, op, Deadline.after(timeout))


def _planned(plans: dict[int, ChaosPlan]) -> ChaosInjector:
    """An injector with explicit per-request plans (no randomness)."""
    injector = ChaosInjector(specs=(), seed=0)
    injector._plans.update(plans)
    return injector


def run(coro):
    return asyncio.run(coro)


class SleepExecutor:
    """Fixed-service executor with identity fingerprints."""

    def __init__(self, service: float = 0.001):
        self.service = service

    async def run(self, request, level, straggle=1.0):
        await asyncio.sleep(self.service * straggle)
        return (request.request_id, level >= 0)

    def verify(self, request, value):
        return value == (request.request_id, True)

    def corrupt(self, value):
        return (value[0], False)

    def health(self):
        return 1.0


class TestBasicServing:
    def test_ok_result_with_phases(self):
        async def main():
            async with ServeEngine(SleepExecutor()) as engine:
                result = await engine.submit(_request(1))
            return result

        result = run(main())
        assert result.status == STATUS_OK
        assert result.level == 0 and result.attempts == 1
        assert result.latency > 0
        assert set(result.phases) == {"queue", "dispatch", "compute",
                                      "verify"}
        assert result.phases["compute"] > 0

    def test_all_ops_accepted(self):
        async def main():
            async with ServeEngine(SimulatedExecutor(seed=2)) as engine:
                return [await engine.submit(_request(i, op))
                        for i, op in enumerate(OPS)]

        assert [r.status for r in run(main())] == [STATUS_OK] * len(OPS)

    def test_unknown_op_rejected_at_construction(self):
        with pytest.raises(ValueError):
            _request(1, op="bootstrap")

    def test_expired_deadline_resolves_timeout(self):
        async def main():
            async with ServeEngine(SleepExecutor()) as engine:
                return await engine.submit(_request(1, timeout=0.0))

        result = run(main())
        assert result.status == STATUS_TIMEOUT
        assert result.error  # typed

    def test_closed_engine_rejects_typed(self):
        async def main():
            engine = ServeEngine(SleepExecutor())
            async with engine:
                pass
            return await engine.submit(_request(1))

        result = run(main())
        assert result.status == STATUS_ERROR
        assert result.error == EngineClosedError.__name__


class TestAdmissionPaths:
    def test_rate_limited_with_retry_after(self):
        config = ServeConfig(tenant_rate=1.0, tenant_burst=1.0)

        async def main():
            async with ServeEngine(SleepExecutor(), config) as engine:
                first = await engine.submit(_request(1))
                second = await engine.submit(_request(2))
            return first, second

        first, second = run(main())
        assert first.status == STATUS_OK
        assert second.status == STATUS_REJECTED
        assert second.error == "rate_limited"
        assert second.retry_after is not None and second.retry_after > 0

    def test_overload_sheds_with_retry_after(self):
        config = ServeConfig(workers=1, queue_limit=1, tenant_rate=1e6,
                             tenant_burst=1e6)

        async def main():
            async with ServeEngine(SleepExecutor(0.05), config) as engine:
                results = await asyncio.gather(
                    *(engine.submit(_request(i)) for i in range(6)))
            return results

        results = run(main())
        statuses = {r.status for r in results}
        shed = [r for r in results if r.status == STATUS_REJECTED]
        assert shed and all(r.error == "overloaded" for r in shed)
        assert all(r.retry_after > 0 for r in shed)
        assert STATUS_OK in statuses


class TestFailureRecovery:
    def test_transient_corruption_retried_to_ok(self):
        chaos = _planned({1: ChaosPlan(corrupt_attempts=1,
                                       sites=("serve_integrity",))})

        async def main():
            async with ServeEngine(SleepExecutor(), chaos=chaos) as engine:
                return await engine.submit(_request(1))

        result = run(main())
        assert result.status == STATUS_OK
        assert result.attempts == 2 and result.retries == 1

    def test_persistent_corruption_degrades(self):
        chaos = _planned({1: ChaosPlan(corrupt_attempts=99,
                                       sites=("serve_integrity",))})

        async def main():
            async with ServeEngine(SleepExecutor(), chaos=chaos) as engine:
                return await engine.submit(_request(1))

        result = run(main())
        assert result.status == STATUS_DEGRADED
        assert result.level >= 1
        assert result.value == (1, True)  # degraded value is correct

    def test_dropped_completion_retried(self):
        chaos = _planned({1: ChaosPlan(drop_attempts=1,
                                       sites=("serve_drop",))})
        config = ServeConfig(attempt_timeout=0.03)

        async def main():
            async with ServeEngine(SleepExecutor(), config,
                                   chaos=chaos) as engine:
                return await engine.submit(_request(1))

        result = run(main())
        assert result.status == STATUS_OK
        assert result.attempts == 2

    def test_straggler_still_completes(self):
        chaos = _planned({1: ChaosPlan(straggle=5.0,
                                       sites=("serve_straggler",))})

        async def main():
            async with ServeEngine(SleepExecutor(0.005),
                                   chaos=chaos) as engine:
                return await engine.submit(_request(1))

        assert run(main()).status == STATUS_OK

    def test_breaker_opens_then_recovers(self):
        plans = {i: ChaosPlan(corrupt_attempts=99,
                              sites=("serve_integrity",))
                 for i in range(1, 4)}
        chaos = _planned(plans)
        config = ServeConfig(breaker_threshold=2, breaker_reset=0.05,
                             max_attempts=2, retry_initial=0.0)

        async def main():
            async with ServeEngine(SleepExecutor(), config,
                                   chaos=chaos) as engine:
                poisoned = [await engine.submit(_request(i))
                            for i in range(1, 4)]
                # Breaker open: a clean request routes straight to the
                # degraded ladder without burning level-0 attempts.
                while_open = await engine.submit(_request(10))
                open_count = engine.breakers[0].opened_total
                await asyncio.sleep(0.06)  # past the reset timeout
                recovered = await engine.submit(_request(11))
                return poisoned, while_open, open_count, recovered

        poisoned, while_open, open_count, recovered = run(main())
        assert all(r.status == STATUS_DEGRADED for r in poisoned)
        assert open_count >= 1
        assert while_open.status == STATUS_DEGRADED
        assert while_open.attempts == 1  # no level-0 attempt while open
        assert recovered.status == STATUS_OK  # the probe healed it

    def test_watchdog_resolves_starved_request(self):
        config = ServeConfig(workers=1, attempt_timeout=1.0,
                             watchdog_grace=0.05)

        async def main():
            async with ServeEngine(SleepExecutor(0.4), config) as engine:
                slow = asyncio.ensure_future(
                    engine.submit(_request(1, timeout=1.0)))
                await asyncio.sleep(0.01)  # let it occupy the worker
                starved = await engine.submit(_request(2, timeout=0.05))
                stats = dict(engine.stats())
                slow_result = await slow
            return starved, stats, slow_result

        starved, stats, slow_result = run(main())
        assert slow_result.status == STATUS_OK
        assert starved.status == STATUS_TIMEOUT
        assert starved.error == "WatchdogTimeout"
        assert stats["watchdog_fires"] == 1

    def test_every_request_resolves_under_load(self):
        """No-hang invariant without chaos: heavy overload, tiny
        deadlines, every submission resolves with a typed status."""
        config = ServeConfig(workers=2, queue_limit=8, tenant_rate=1e6,
                            tenant_burst=1e6)

        async def main():
            async with ServeEngine(SleepExecutor(0.005), config) as engine:
                return await asyncio.gather(
                    *(engine.submit(_request(i, timeout=0.05))
                      for i in range(60)))

        results = run(main())
        assert len(results) == 60
        assert all(r.status in {STATUS_OK, STATUS_REJECTED, STATUS_TIMEOUT}
                   for r in results)


class TestCkksExecutor:
    @pytest.fixture(scope="class")
    def executor(self):
        return CkksOpExecutor(seed=11)

    def test_all_ops_verify_on_every_ladder_level(self, executor):
        async def main():
            out = {}
            for op in OPS:
                for level in (0, 1, 2):
                    request = _request(hash(op) % 1000, op)
                    value = await executor.run(request, level)
                    out[(op, level)] = executor.verify(request, value)
            return out

        verdicts = run(main())
        assert all(verdicts.values())

    def test_served_names_label_one_checked_program(self, executor):
        labels = [op.label for op in SERVED_PROGRAM if op.label]
        assert sorted(labels) == sorted(OPS)
        # keyswitch (relinearize the tensor product) and rescale reach
        # the same plaintext product hmult does, by other positions.
        for op in ("keyswitch", "rescale"):
            assert np.allclose(executor.golden[op], executor.golden["hmult"],
                               atol=1e-3)

    def test_corruption_never_verifies(self, executor):
        async def main():
            request = _request(1, "keyswitch")
            value = await executor.run(request, 0)
            return executor.verify(request, executor.corrupt(value))

        assert run(main()) is False

    def test_served_through_engine(self, executor):
        async def main():
            async with ServeEngine(executor) as engine:
                return [await engine.submit(_request(i, op, timeout=5.0))
                        for i, op in enumerate(OPS)]

        results = run(main())
        assert [r.status for r in results] == [STATUS_OK] * len(OPS)
        for result, op in zip(results, OPS):
            assert np.allclose(result.value, executor.golden[op],
                               atol=1e-6)


class TestCloseResolution:
    """close() must resolve every outstanding ticket with a typed
    result — queued-unstarted work, and tickets that raced admission —
    never leaving a submit() hanging on the watchdog."""

    def test_fast_close_resolves_queued_work_typed(self):
        async def main():
            config = ServeConfig(workers=1, watchdog_grace=30.0)
            engine = ServeEngine(SleepExecutor(service=0.05),
                                 config=config)
            await engine.start()
            tasks = [asyncio.create_task(
                engine.submit(_request(i, timeout=60.0)))
                for i in range(6)]
            await asyncio.sleep(0.01)  # worker picks up the first
            await engine.close(drain=False)
            return await asyncio.gather(*tasks)

        results = run(main())
        statuses = [r.status for r in results]
        # The in-flight request finishes; the queued rest resolve as
        # typed shutdown errors without waiting out their deadlines.
        assert STATUS_OK in statuses
        shutdown = [r for r in results if r.status == STATUS_ERROR]
        assert shutdown and all(
            r.error == EngineClosedError.__name__ for r in shutdown)

    def test_drain_close_finishes_queued_work(self):
        async def main():
            config = ServeConfig(workers=1)
            engine = ServeEngine(SleepExecutor(service=0.002),
                                 config=config)
            await engine.start()
            tasks = [asyncio.create_task(
                engine.submit(_request(i, timeout=10.0)))
                for i in range(4)]
            await asyncio.sleep(0.001)
            await engine.close()
            return await asyncio.gather(*tasks)

        results = run(main())
        assert all(r.status == STATUS_OK for r in results)

    def test_ticket_enqueued_behind_sentinels_still_resolves(self):
        # The race close() defends against: a submit that passed
        # admission before _closed was set enqueues its ticket behind
        # the worker stop sentinels (here: no worker ever consumes it).
        async def main():
            engine = ServeEngine(SleepExecutor(),
                                 config=ServeConfig(watchdog_grace=30.0))
            # No start(): the queue has no consumers, like a ticket
            # stranded behind every worker's stop sentinel.
            task = asyncio.create_task(
                engine.submit(_request(1, timeout=60.0)))
            await asyncio.sleep(0.01)
            await engine.close(drain=False)
            return await asyncio.wait_for(task, timeout=1.0)

        result = run(main())
        assert result.status == STATUS_ERROR
        assert result.error == EngineClosedError.__name__

    def test_shutdown_resolution_counted(self):
        async def main():
            engine = ServeEngine(SleepExecutor(),
                                 config=ServeConfig(watchdog_grace=30.0))
            task = asyncio.create_task(
                engine.submit(_request(1, timeout=60.0)))
            await asyncio.sleep(0.01)
            await engine.close(drain=False)
            await task
            return engine.stats()

        stats = run(main())
        assert stats["shutdown_resolved"] == 1


class TestRequestJournal:
    """The durable request ledger: admitted-but-unresolved requests are
    re-enqueued by a restarted engine."""

    def test_resolved_requests_leave_no_pending(self, tmp_path):
        from repro.recover.journal import RequestJournal

        async def main():
            journal = RequestJournal(tmp_path / "req.wal")
            async with ServeEngine(SleepExecutor(),
                                   journal=journal) as engine:
                await engine.submit(_request(1))
                await engine.submit(_request(2))
            journal.close()
            return RequestJournal(tmp_path / "req.wal").pending()

        assert run(main()) == []

    def test_restart_reenqueues_unresolved(self, tmp_path):
        from repro.recover.journal import RequestJournal

        # A crashed engine's journal: request 7 admitted, never
        # resolved (written directly — the crash left no resolve).
        crashed = RequestJournal(tmp_path / "req.wal")
        crashed.record_submit(7, tenant="t0", op="hmult", timeout_s=5.0,
                              payload=3)
        crashed.record_resolve(6, "ok")  # unrelated, already done
        crashed.close()

        async def main():
            journal = RequestJournal(tmp_path / "req.wal")
            async with ServeEngine(SleepExecutor(),
                                   journal=journal) as engine:
                replayed = await engine.resume_pending()
                stats = engine.stats()
            journal.close()
            remaining = RequestJournal(tmp_path / "req.wal").pending()
            return replayed, stats, remaining

        replayed, stats, remaining = run(main())
        assert len(replayed) == 1
        assert replayed[0].request_id == 7
        assert replayed[0].status == STATUS_OK
        assert stats["journal_replayed"] == 1
        assert remaining == []  # the replay was journaled as resolved

    def test_rejected_requests_never_journaled(self, tmp_path):
        from repro.recover.journal import RequestJournal

        async def main():
            journal = RequestJournal(tmp_path / "req.wal")
            engine = ServeEngine(SleepExecutor(), journal=journal)
            async with engine:
                pass
            result = await engine.submit(_request(1))  # closed: rejected
            journal.close()
            return result, RequestJournal(tmp_path / "req.wal").pending()

        result, pending = run(main())
        assert result.status == STATUS_ERROR
        assert pending == []
