"""``python -m repro.obs``: the workload profiler CLI."""

import json

import pytest

from repro.obs.cli import _WORKLOADS, build_parser, main, profile
from repro.obs.export import validate_chrome_trace


class TestProfile:
    @pytest.fixture(scope="class")
    def result(self):
        workload = _WORKLOADS["keyswitch"](quick=True, seed=2025)
        return profile(workload, m=16)

    def test_neutrality_checks_pass(self, result):
        assert result["checks"]["bit_identical"]
        assert result["checks"]["cycles_identical"]
        assert result["ok"]

    def test_phase_cycles_sum_to_backend_total(self, result):
        assert result["checks"]["phase_sum_matches_total"]
        assert result["checks"]["fully_attributed"]
        assert result["unattributed"] == 0
        assert result["phase_sum"] == result["cycles"]["on"]

    def test_keyswitch_phase_taxonomy(self, result):
        assert {"keyswitch.decompose", "keyswitch.ntt",
                "keyswitch.inner_product", "keyswitch.mod_down"} \
            <= set(result["phases"])

    @pytest.mark.parametrize("name", ["hmult", "bootstrap"])
    def test_every_pass_matches_and_is_fully_attributed(self, name):
        """The bootstrap passes run on one context: each must replay
        the same dispatches (its constants are encoded in set-up, not
        in the first pass), all inside named phases."""
        result = profile(_WORKLOADS[name](quick=True, seed=3), m=16)
        assert result["ok"] and result["checks"]["fully_attributed"]
        assert result["unattributed"] == 0

    def test_hrot_covers_automorphism_phase(self):
        workload = _WORKLOADS["hrot"](quick=True, seed=3)
        result = profile(workload, m=16)
        assert result["ok"]
        assert "hrot.automorphism" in result["phases"]


class TestMain:
    def test_end_to_end_artifacts(self, tmp_path):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        status = main(["--workload", "keyswitch", "--quick",
                       "--trace", str(trace), "--metrics", str(metrics)])
        assert status == 0

        with open(trace) as fh:
            trace_obj = json.load(fh)
        assert validate_chrome_trace(trace_obj) == []
        names = {e["name"] for e in trace_obj["traceEvents"]
                 if e.get("ph") == "X"}
        assert "keyswitch.ntt" in names and "vpu.execute" in names

        with open(metrics) as fh:
            snap = json.load(fh)
        assert snap["schema"] == 1 and snap["bench"] == "obs"
        assert snap["workload"] == "keyswitch"
        assert all(snap["checks"].values())
        assert snap["counters"]["vpu.executions"] > 0
        assert snap["counters"]["backend.kernels.ntt"] > 0

    def test_validate_trace_mode(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["--workload", "keyswitch", "--quick",
                     "--trace", str(trace),
                     "--metrics", str(metrics)]) == 0
        assert main(["--validate-trace", str(trace)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text('{"notTraceEvents": []}')
        assert main(["--validate-trace", str(bad)]) == 1

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.workload == "keyswitch"
        assert args.m == 16 and not args.quick
