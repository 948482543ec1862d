"""Kill-campaign tests: forked workers really die by SIGKILL, every
resume classifies, torn writes are detected, and the campaign is
deterministic in its seed.

Forked children exit via SIGKILL or ``os._exit`` only, so pytest's
machinery never runs twice.
"""

import json
from pathlib import Path

import pytest

from repro.fault.crash import (SITE_OP_BOUNDARY, SITE_WAL_MID_RECORD,
                               CrashInjector, CrashSpec, crash_point,
                               install_crash_hook, pending_tear)
from repro.recover.campaign import (CLASS_DETECTED_TORN, CLASS_RECOVERED,
                                    build_workload, run_campaign)
from repro.recover.cli import main


@pytest.fixture(autouse=True)
def _no_leaked_hook():
    yield
    install_crash_hook(None)


class TestCrashPrimitives:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CrashSpec("nonsense", 0)
        with pytest.raises(ValueError):
            CrashSpec(SITE_OP_BOUNDARY, -1)

    def test_crash_point_noop_without_hook(self):
        install_crash_hook(None)
        crash_point(SITE_OP_BOUNDARY)  # must not raise or kill

    def test_pending_tear_counts_occurrences(self):
        spec = CrashSpec(SITE_WAL_MID_RECORD, 2, tear_fraction=0.25)
        install_crash_hook(CrashInjector([spec]))
        assert pending_tear() is None
        assert pending_tear() is None
        assert pending_tear() is spec
        assert pending_tear() is None


class TestWorkloads:
    @pytest.mark.parametrize("name", ["ckks", "bgv"])
    def test_goldens_are_stable(self, name):
        """Run to run, and against the committed campaign artifact: the
        golden covers keygen, encryption and every op of the workload,
        so any drift in RNG draw order or ring arithmetic moves it."""
        workload = build_workload(name)
        assert workload.golden() == workload.golden()
        committed = json.loads(
            (Path(__file__).parent.parent / "BENCH_recover.json").read_text())
        assert workload.golden() == committed["campaign"]["goldens"][name]

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            build_workload("paillier")


class TestKillCampaign:
    def test_small_campaign_all_classified(self):
        result = run_campaign(executors=("ckks",), injections=6, seed=5)
        assert len(result.runs) == 6
        assert result.ok
        assert result.silent_divergences == 0
        counts = result.counts
        assert counts[CLASS_RECOVERED] > 0
        assert counts[CLASS_DETECTED_TORN] > 0  # torn writes detected
        assert all(run.crashed for run in result.runs)

    def test_torn_runs_carry_the_finding(self):
        result = run_campaign(executors=("ckks",), injections=4, seed=11)
        for run in result.runs:
            if run.site == SITE_WAL_MID_RECORD:
                assert run.classification == CLASS_DETECTED_TORN
                assert "torn_tail" in run.findings

    def test_deterministic_in_seed(self):
        a = run_campaign(executors=("ckks",), injections=4, seed=9)
        b = run_campaign(executors=("ckks",), injections=4, seed=9)
        assert [r.to_json() for r in a.runs] == [
            r.to_json() for r in b.runs]

    def test_json_shape(self):
        result = run_campaign(executors=("ckks",), injections=2, seed=1)
        payload = result.to_json()
        assert payload["injections"] == 2
        assert set(payload["counts"]) == {
            "recovered_bit_identical", "detected_torn", "failed"}
        assert payload["silent_divergences"] == 0
        assert payload["ok"] is True


class TestCli:
    def test_campaign_mode(self, capsys, tmp_path):
        out = tmp_path / "campaign.json"
        code = main(["--campaign", "--executor", "ckks",
                     "--injections", "4", "--seed", "2",
                     "--json", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "PASS" in captured
        payload = json.loads(out.read_text())
        assert payload["injections"] == 4 and payload["ok"]

    def test_requires_mode(self):
        with pytest.raises(SystemExit):
            main([])
