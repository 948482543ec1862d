"""SARIF 2.1.0 rendering and envelope validation."""

import json

from repro.analysis.findings import Finding, Severity
from repro.analysis.sarif import (
    RULE_DESCRIPTIONS,
    SARIF_SCHEMA,
    SARIF_VERSION,
    to_sarif,
    validate_sarif,
)


def _finding(rule="FHC002", severity=Severity.ERROR,
             location="src/repro/x.py:41",
             message="narrowing without a guard") -> Finding:
    return Finding("lint", rule, severity, location, message)


class TestToSarif:
    def test_empty_findings_valid_envelope(self):
        payload = to_sarif([])
        assert payload["version"] == SARIF_VERSION
        assert payload["$schema"] == SARIF_SCHEMA
        assert payload["runs"][0]["results"] == []
        assert validate_sarif(payload) == []

    def test_round_trips_through_json(self):
        payload = json.loads(json.dumps(to_sarif([_finding()])))
        assert validate_sarif(payload) == []

    def test_path_line_location_becomes_physical(self):
        result = to_sarif([_finding()])["runs"][0]["results"][0]
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/repro/x.py"
        assert loc["region"]["startLine"] == 41

    def test_symbolic_location_becomes_logical(self):
        finding = Finding("dataflow", "D001", Severity.ERROR,
                          "pc 12: Store", "read of r999 before any write")
        result = to_sarif([finding])["runs"][0]["results"][0]
        logical = result["locations"][0]["logicalLocations"][0]
        assert logical["fullyQualifiedName"] == "pc 12: Store"

    def test_severity_maps_to_level(self):
        findings = [_finding(severity=Severity.ERROR),
                    _finding(rule="FHC010", severity=Severity.WARNING,
                             message="stale suppression")]
        results = to_sarif(findings)["runs"][0]["results"]
        assert [r["level"] for r in results] == ["error", "warning"]

    def test_all_emitted_rules_declared_by_driver(self):
        payload = to_sarif([_finding(rule=r) for r in
                            ("P001", "S004", "D003", "R002", "C006",
                             "FHC012")])
        declared = {rule["id"] for rule in
                    payload["runs"][0]["tool"]["driver"]["rules"]}
        assert {"P001", "S004", "D003", "R002", "C006", "FHC012"} <= declared

    def test_every_described_rule_family_present(self):
        # The catalogue must cover every family the passes can emit.
        families = {rule[:1] for rule in RULE_DESCRIPTIONS}
        assert {"P", "S", "D", "R", "C", "F"} <= families


class TestValidateSarif:
    def test_rejects_wrong_version(self):
        payload = to_sarif([])
        payload["version"] = "1.0.0"
        assert any("version" in p for p in validate_sarif(payload))

    def test_rejects_missing_driver_name(self):
        payload = to_sarif([])
        del payload["runs"][0]["tool"]["driver"]["name"]
        assert any("driver.name" in p for p in validate_sarif(payload))

    def test_rejects_undeclared_rule_id(self):
        payload = to_sarif([_finding()])
        payload["runs"][0]["results"][0]["ruleId"] = "ZZZ999"
        assert any("ZZZ999" in p for p in validate_sarif(payload))

    def test_rejects_missing_message_text(self):
        payload = to_sarif([_finding()])
        payload["runs"][0]["results"][0]["message"] = {}
        assert any("message.text" in p for p in validate_sarif(payload))

    def test_rejects_non_dict_payload(self):
        assert validate_sarif([]) != []
