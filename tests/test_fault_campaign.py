"""Campaign driver: coverage, classification, determinism, CLI."""

import dataclasses
import json

import pytest

from repro.fault.campaign import (
    CampaignConfig,
    audit_determinism,
    keyswitch_config,
    run_campaign,
    smoke_config,
)
from repro.fault.cli import main
from repro.fault.injector import CORE_SITES, KINDS, current_fault_hook
from repro.fault.policy import IntegrityPolicy


class TestSmokeCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return run_campaign(smoke_config(injections=48))

    def test_no_silent_corruption_under_retry(self, report):
        assert report.outcome_counts().get("silent", 0) == 0

    def test_all_core_sites_and_kinds_covered(self, report):
        assert set(report.per_site()) == set(CORE_SITES)
        assert {e.spec.kind for e in report.events} == set(KINDS)

    def test_live_detection_rate(self, report):
        assert report.detection_rate_live >= 0.99

    def test_detection_latency_recorded(self, report):
        latencies = [e.detection_latency for e in report.events
                     if e.detection_latency is not None]
        assert latencies and all(lat >= 0 for lat in latencies)

    def test_hook_is_uninstalled_after_campaign(self, report):
        assert current_fault_hook() is None

    def test_report_serializes(self, report):
        data = json.loads(report.to_json())
        assert data["injections"] == 48
        assert data["policy"] == "detect-retry"
        # Summary + seed: the event rows are pinned by digest, not kept.
        assert "events" not in data and len(report.events) == 48
        assert data["events_digest"] == report.events_digest()
        assert len(data["events_digest"]) == 64

    def test_report_carries_shared_artifact_envelope(self, report):
        data = json.loads(report.to_json())
        assert data["schema"] == 1
        assert data["bench"] == "faults"
        assert set(data["host"]) == {"machine", "python", "numpy"}


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        assert audit_determinism(smoke_config(injections=12))

    def test_digest_pins_every_event_field(self):
        report = run_campaign(smoke_config(injections=12))
        digest = report.events_digest()
        event = report.events[5]
        report.events[5] = dataclasses.replace(event,
                                               retries=event.retries + 1)
        assert report.events_digest() != digest
        report.events[5] = event
        assert report.events_digest() == digest
        report.events.reverse()
        assert report.events_digest() != digest

    def test_different_seed_differs(self):
        a = run_campaign(smoke_config(injections=12, seed=1)).to_json()
        b = run_campaign(smoke_config(injections=12, seed=2)).to_json()
        assert a != b


class TestPolicies:
    def test_off_policy_never_detects(self):
        report = run_campaign(smoke_config(
            injections=16, policy=IntegrityPolicy.OFF))
        assert set(report.outcome_counts()) <= {"masked", "silent", "crash"}
        assert all(e.detection_latency is None for e in report.events)

    def test_detect_policy_counts_without_correcting(self):
        report = run_campaign(smoke_config(
            injections=16, policy=IntegrityPolicy.DETECT))
        assert report.outcome_counts().get("silent", 0) == 0
        assert sum(e.retries for e in report.events) == 0


class TestKeyswitchCampaign:
    def test_spare_channel_campaign_is_clean(self):
        report = run_campaign(keyswitch_config(injections=8))
        counts = report.outcome_counts()
        assert counts.get("silent", 0) == 0
        assert counts.get("corrected", 0) >= 1


class TestConfigValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(workload="toaster"))

    def test_unsupported_site_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(workload="keyswitch",
                                        sites=("regfile",)))

    def test_empty_sites_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(sites=()))


class TestCli:
    def test_smoke_run_writes_json(self, tmp_path, capsys):
        out = tmp_path / "faults.json"
        code = main(["--campaign", "smoke", "--injections", "16",
                     "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["injections"] == 16
        assert data["outcomes"].get("silent", 0) == 0
        assert "fault campaign" in capsys.readouterr().out

    def test_audit_mode(self, capsys):
        assert main(["--campaign", "smoke", "--injections", "8",
                     "--audit"]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_policy_override(self, capsys):
        assert main(["--campaign", "smoke", "--injections", "8",
                     "--policy", "off"]) == 0
        assert "policy=off" in capsys.readouterr().out
