"""Request-scoped tracing through the serving stack, under contention.

The barrier-hammer scenario: >= 8 tenants submit concurrently through
one engine, every worker interleaving on the shared tracer, and the
contract is that each request's spans — queue wait, dispatch gaps,
attempts, compute, verify — carry exactly that request's trace id,
the span forest is well formed, and per-trace cycle attribution
reconciles integer-exactly with the backend's counted model cycles.
These are the properties the retrospective-span design could not give:
with interleaved workers a single implicit stack misattributes both
parents and cycles.
"""

import asyncio
import json

from repro.obs import (
    Observer,
    check_span_tree,
    current_trace_context,
    install_obs_hook,
    observe,
    per_trace_cycles,
)
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.recover.journal import RequestJournal
from repro.serve.chaos import run_chaos_campaign
from repro.serve.deadline import Deadline
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.executor import SimulatedExecutor
from repro.serve.requests import STATUS_OK, ServeRequest

TENANTS = 8
PER_TENANT = 6


def run(coro):
    return asyncio.run(coro)


def _request(request_id: int, tenant: str,
             op: str = "hmult") -> ServeRequest:
    return ServeRequest(request_id, tenant, op, Deadline.after(5.0),
                        payload=request_id)


async def _hammer(engine: ServeEngine):
    """All tenants released at one barrier; returns results by id.
    (Hand-rolled barrier: asyncio.Barrier needs Python >= 3.11.)"""
    release = asyncio.Event()
    waiting = 0

    async def tenant(t: int):
        nonlocal waiting
        name = f"tenant-{t}"
        waiting += 1
        if waiting == TENANTS:
            release.set()
        await release.wait()
        return [await engine.submit(_request(t * 1000 + i, name))
                for i in range(PER_TENANT)]

    groups = await asyncio.gather(*(tenant(t) for t in range(TENANTS)))
    return [r for group in groups for r in group]


class TestBarrierHammer:
    def _run_observed(self):
        observer = Observer()
        previous = install_obs_hook(observer)
        try:
            async def main():
                async with ServeEngine(
                        SimulatedExecutor(seed=5),
                        ServeConfig(workers=4, seed=5)) as engine:
                    return await _hammer(engine)

            results = run(main())
        finally:
            install_obs_hook(previous)
        assert observer.tracer.unwind() == 0
        return observer, results

    def test_one_trace_per_request_with_correct_spans(self):
        observer, results = self._run_observed()
        assert len(results) == TENANTS * PER_TENANT
        assert all(r.status == STATUS_OK for r in results)

        roots = {}
        for span in observer.tracer.spans:
            if span.name == "serve.request":
                assert span.trace_id != 0
                assert span.parent_id == 0
                roots[span.args["request"]] = span.trace_id
        assert len(roots) == TENANTS * PER_TENANT
        assert len(set(roots.values())) == len(roots)  # distinct traces

        # Every request-stamped serve span belongs to its request's
        # trace — no cross-request bleed under worker interleaving.
        for span in observer.tracer.spans:
            rid = span.args.get("request")
            if rid is not None and span.trace_id:
                assert span.trace_id == roots[rid], (
                    f"span {span.name!r} for request {rid} landed on "
                    f"trace {span.trace_id}, expected {roots[rid]}")

        # Each trace carries the full request lifecycle.
        names_by_trace = {}
        for span in observer.tracer.spans:
            if span.trace_id:
                names_by_trace.setdefault(span.trace_id,
                                          set()).add(span.name)
        for trace_id, names in names_by_trace.items():
            assert {"serve.request", "serve.queue", "serve.dispatch",
                    "serve.attempt", "serve.compute",
                    "serve.verify"} <= names, (trace_id, names)

    def test_span_tree_well_formed_and_exportable(self):
        observer, _ = self._run_observed()
        assert check_span_tree(observer.tracer) == []
        trace = to_chrome_trace(observer.tracer)
        assert validate_chrome_trace(trace) == []
        json.dumps(trace)

    def test_per_trace_cycles_reconcile_exactly(self):
        observer, _ = self._run_observed()
        totals = per_trace_cycles(observer.tracer)
        traced = sum(c for tid, c in totals.items() if tid)
        counted = int(observer.metrics.counters["serve.model_cycles"])
        assert traced == counted
        assert totals.get(0, 0) == 0  # nothing escaped its request
        assert sum(totals.values()) == observer.tracer.total_cycles()

    def test_untraced_engine_still_serves(self):
        """No observer installed: no ids minted, no spans, same results."""
        async def main():
            async with ServeEngine(
                    SimulatedExecutor(seed=5),
                    ServeConfig(workers=4, seed=5)) as engine:
                return await _hammer(engine)

        results = run(main())
        assert all(r.status == STATUS_OK for r in results)

    def test_request_closes_on_the_observer_that_opened_it(self):
        """Regression: ``submit`` re-read the hook in its ``finally``,
        so uninstalling it mid-request skipped ``end_request`` — root
        span left open, trace context left bound on the caller."""
        class Unhooking(SimulatedExecutor):
            async def run(self, request, level, straggle=1.0):
                install_obs_hook(None)
                return await super().run(request, level, straggle=straggle)

        async def main():
            async with ServeEngine(Unhooking(seed=5),
                                   ServeConfig(workers=1, seed=5)) as engine:
                result = await engine.submit(_request(1, "tenant-0"))
                return result, current_trace_context()

        observer = Observer()
        install_obs_hook(observer)
        try:
            result, ambient = run(main())
        finally:
            install_obs_hook(None)
        assert result.status == STATUS_OK and ambient is None
        root, = [s for s in observer.tracer.spans
                 if s.name == "serve.request"]
        assert root.args["status"] == STATUS_OK
        assert observer.tracer.unwind() == 0


class TestChaosSpanContract:
    def test_chaos_campaign_traces_stay_well_formed(self):
        """Retries, degrades, drops, stragglers, watchdog kills — the
        span-tree and attribution checks ride inside the campaign's own
        violation list when an observer is installed."""
        with observe() as observer:
            outcome = run_chaos_campaign(requests=250, seed=11,
                                         min_injections=40)
        assert outcome.passed, outcome.violations
        traced = sum(c for tid, c in
                     per_trace_cycles(observer.tracer).items() if tid)
        assert traced == int(
            observer.metrics.counters["serve.model_cycles"])
        # Retried requests keep one trace across attempts.
        attempts_by_trace = {}
        for span in observer.tracer.spans:
            if span.name == "serve.attempt" and span.trace_id:
                attempts_by_trace.setdefault(span.trace_id, []).append(
                    span.args["attempt"])
        retried = {tid: sorted(a) for tid, a in attempts_by_trace.items()
                   if len(a) > 1}
        assert retried, "campaign produced no retries to check"
        for trace_id, attempts in retried.items():
            assert attempts == list(range(1, len(attempts) + 1))


class TestJournalTraceStamp:
    def test_submit_carries_trace_id_when_bound(self, tmp_path):
        journal = RequestJournal(tmp_path / "serve.wal")
        with observe() as observer:
            handle = observer.begin_request("serve.request", request=1)
            journal.record_submit(1, tenant="a", op="hmult", timeout_s=2.0)
            observer.end_request(handle)
        (pending,) = journal.pending()
        assert pending["trace"] == handle.ctx.trace_id
        journal.close()

    def test_journal_bytes_identical_with_obs_off(self, tmp_path):
        """With observability off the journal encoding is exactly the
        pre-tracing encoding — replayable by old readers, no id noise."""
        a = RequestJournal(tmp_path / "a.wal")
        a.record_submit(7, tenant="a", op="hmult", timeout_s=2.0)
        a.record_resolve(7, "ok")
        a.close()
        b = RequestJournal(tmp_path / "b.wal")
        b.record_submit(7, tenant="a", op="hmult", timeout_s=2.0)
        b.record_resolve(7, "ok")
        b.close()
        assert (tmp_path / "a.wal").read_bytes() == \
            (tmp_path / "b.wal").read_bytes()
        assert b"trace" not in (tmp_path / "a.wal").read_bytes()
