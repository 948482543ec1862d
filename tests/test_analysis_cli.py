"""End-to-end tests for ``python -m repro.analysis`` (the CI contract:
exit 0 and clean JSON when the repo is healthy, exit 1 with findings
when anything regresses)."""

import json

import pytest

from repro.analysis.cli import main

#: A source FHC003 flags: the product of an unreduced sum taken mod q.
UNREDUCED_PRODUCT = (
    'def f(u, v, tw, q):\n'
    '    "operates on uint64 rows"\n'
    '    return (u + v) * tw % q\n')


class TestSections:
    def test_full_run_is_clean(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fhecheck: clean" in out

    def test_json_output_machine_readable(self, capsys):
        assert main(["resources", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["sections"] == ["resources"]
        assert payload["findings"] == []

    def test_unknown_section_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_lint_section_respects_root(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(UNREDUCED_PRODUCT)
        assert main(["lint", "--lint-root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FHC003" in out

    def test_lint_findings_reported_in_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(UNREDUCED_PRODUCT)
        assert main(["lint", "--json", "--lint-root", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "FHC003"
        assert str(bad) in payload["findings"][0]["location"]

    def test_new_sections_run_clean(self, capsys):
        assert main(["dataflow", "resources", "ctstate"]) == 0
        out = capsys.readouterr().out
        assert "dataflow" in out
        assert "staged" in out
        assert "ctstate" in out


class TestExitCodes:
    """The documented CI contract: 0 clean, 1 findings, 2 usage."""

    def test_usage_error_exits_2(self, capsys):
        # --json is the one machine-readable form; the SARIF options
        # are gone, so naming one is a usage error.
        for argv in (["--format", "json"], ["--output", "out.json"],
                     ["--validate-sarif", "out.sarif"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2

    def test_plans_section_is_a_usage_error(self, capsys):
        # No stage-plan section: the kernels' word bounds are closed
        # forms, held by tests/test_analysis_bounds_edges.py.
        with pytest.raises(SystemExit) as excinfo:
            main(["plans"])
        assert excinfo.value.code == 2
        assert "plans" in capsys.readouterr().err

    def test_programs_section_is_a_usage_error(self, capsys):
        # No interval walk: a compiled program is checked by the unit
        # that lowers, binds and runs it.
        with pytest.raises(SystemExit) as excinfo:
            main(["programs"])
        assert excinfo.value.code == 2
        assert "programs" in capsys.readouterr().err

    def test_findings_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(UNREDUCED_PRODUCT)
        assert main(["lint", "--lint-root", str(tmp_path)]) == 1

    def test_warnings_alone_exit_0(self, tmp_path, capsys):
        stale = tmp_path / "stale.py"
        stale.write_text("def f(x):\n    return x  # fhecheck: ok=FHC001\n")
        assert main(["lint", "--lint-root", str(tmp_path)]) == 0
        assert "FHC010" in capsys.readouterr().out
