"""Chaos campaign and benchmark-artifact tests (smoke-sized)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import observe
from repro.obs.export import validate_envelope
from repro.serve.bench import run_bench
from repro.serve.chaos import (
    SERVE_SITES,
    ChaosInjector,
    ChaosSpec,
    default_chaos_specs,
    run_chaos_campaign,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestChaosInjector:
    def test_plans_are_deterministic(self):
        specs = default_chaos_specs()
        a = ChaosInjector(specs, seed=9)
        b = ChaosInjector(specs, seed=9)
        for request_id in range(200):
            assert a.plan_for(request_id) == b.plan_for(request_id)
        assert a.injections == b.injections
        assert a.by_site == b.by_site

    def test_plan_cached_not_recounted(self):
        injector = ChaosInjector(default_chaos_specs(), seed=1)
        for request_id in range(100):
            injector.plan_for(request_id)
        before = injector.injections
        for request_id in range(100):
            injector.plan_for(request_id)
        assert injector.injections == before

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChaosSpec("regfile", rate=0.5)  # a kernel site, not a serve site
        with pytest.raises(ValueError):
            ChaosSpec(SERVE_SITES[0], rate=1.5)

    def test_obs_counts_injections(self):
        with observe() as obs:
            injector = ChaosInjector(default_chaos_specs(), seed=3)
            for request_id in range(100):
                injector.plan_for(request_id)
            if injector.injections:
                assert (obs.metrics.counters["serve.chaos.injections"]
                        == injector.injections)


class TestChaosCampaign:
    def test_smoke_campaign_holds_the_contract(self):
        outcome = run_chaos_campaign(requests=200, seed=4,
                                     min_injections=30)
        assert outcome.passed, outcome.violations
        assert outcome.resolved == outcome.submitted == 200
        assert outcome.hung == 0
        assert outcome.silent == 0
        assert outcome.untyped == 0
        assert outcome.injections >= 30
        # The mix actually exercised the machinery.
        assert outcome.affected > 0
        assert sum(outcome.outcomes.values()) == 200

    def test_campaign_is_deterministic(self):
        first = run_chaos_campaign(requests=150, seed=6, min_injections=1)
        second = run_chaos_campaign(requests=150, seed=6, min_injections=1)
        assert first.injections == second.injections
        assert first.by_site == second.by_site
        assert first.affected == second.affected

    def test_cli_chaos_exits_zero_on_pass(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve", "--chaos",
             "--requests", "150", "--min-injections", "20", "--seed", "2"],
            capture_output=True, text=True, env={"PYTHONPATH": SRC,
                                                 "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["passed"] is True
        assert report["hung"] == 0 and report["silent"] == 0

    def test_cli_chaos_exits_nonzero_on_infeasible_floor(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve", "--chaos",
             "--requests", "30", "--min-injections", "100000"],
            capture_output=True, text=True, env={"PYTHONPATH": SRC,
                                                 "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["passed"] is False


class TestBenchArtifact:
    def test_smoke_bench_envelope_and_fields(self):
        artifact = run_bench(requests=800, seed=1, workers=8, rate=2000.0,
                             time_scale=0.5)
        assert validate_envelope(artifact) == []
        assert artifact["bench"] == "serve"
        results = artifact["results"]
        assert results["requests"] == 800
        assert results["latency_s"]["p50"] <= results["latency_s"]["p99"]
        assert results["throughput_rps"] > 0
        for key in ("retried", "degraded", "shed", "timed_out"):
            assert key in results
        engine = artifact["engine"]
        assert engine["resolved"] == engine["submitted"] == 800

    def test_closed_loop_mode(self):
        artifact = run_bench(requests=400, seed=2, workers=8, rate=2000.0,
                             mode="closed", time_scale=0.5)
        assert validate_envelope(artifact) == []
        assert artifact["results"]["requests"] == 400
        assert artifact["config"]["mode"] == "closed"

    def test_validate_envelope_cli_roundtrip(self, tmp_path):
        artifact = run_bench(requests=200, seed=3, workers=4, rate=2000.0,
                             time_scale=0.25)
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps(artifact))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs",
             "--validate-envelope", str(path)],
            capture_output=True, text=True, env={"PYTHONPATH": SRC,
                                                 "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stderr
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 0, "bench": ""}))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs",
             "--validate-envelope", str(bad)],
            capture_output=True, text=True, env={"PYTHONPATH": SRC,
                                                 "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 1
