"""SARIF 2.1.0 rendering of fhecheck findings.

GitHub code scanning (and most SARIF viewers) ingest a minimal
envelope: ``$schema``/``version``, one run with a tool driver that
declares its rules, and one result per finding.  Findings whose
location is a real ``path:line`` (the lint rules) get a
``physicalLocation``; analysis findings anchored to program counters,
plan steps, or op indices get a ``logicalLocations`` entry instead —
both are valid per the spec, and code scanning displays the logical
ones at the tool level.

:func:`validate_sarif` is the shape check CI runs on the emitted
artifact; it returns a list of problems (empty means valid).
"""

from __future__ import annotations

import re
from typing import Any, Iterable

from repro.analysis.findings import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

#: One-line help for every rule family member the analyzer can emit.
RULE_DESCRIPTIONS: dict[str, str] = {
    # program interval walker (P...)
    "P001": "uint64 overflow: a product bound exceeds 2^64",
    "P002": "Barrett precondition broken: product bound reaches q^2",
    "P003": "twiddle constant not fully reduced mod q",
    "P004": "interval read of a register before any write",
    "P005": "twiddle vector length does not match the lane geometry",
    "P006": "stored value exceeds the architecturally visible bound",
    "P007": "unknown instruction reached the interval walker",
    # stage plans (S...)
    "S001": "stage intermediate exceeds its word (uint64, or a 32-bit "
            "lane) or wraps below zero",
    "S002": "Shoup path used with a modulus at or above 2^30",
    "S003": "Shoup multiplicand bound reaches the 2^32 precision radix",
    "S004": "lane bound escapes the < 2q lazy invariant",
    "S005": "stage output bound exceeds the declared invariant",
    # dataflow (D...)
    "D001": "read of a register no instruction has written",
    "D002": "dead write: value overwritten or dropped without a read",
    "D003": "network routing is not a lane permutation",
    "D004": "diagonal-read WAR hazard: destination inside source window",
    "D005": "register-file 2R1W port budget exceeded",
    # resources (R...)
    "R001": "SRAM occupancy exceeds capacity",
    "R002": "buffer used after eviction",
    "R003": "buffer used without being staged or allocated",
    "R004": "double-buffer conflict between prefetch and active buffer",
    # ciphertext state (C...)
    "C001": "operand levels differ; plan must align explicitly",
    "C002": "scale overflow: log2(scale) reaches the modulus budget",
    "C003": "addition scale mismatch beyond evaluator tolerance",
    "C004": "NTT/coeff domain mismatch",
    "C005": "level underflow or op unsupported by the scheme",
    "C006": "noise bound exhausts the modulus budget",
    "C007": "ciphertext-size misuse",
    # lint (FHC...): the parse failure plus the 8 rules of lint.py
    "FHC000": "file could not be parsed for linting",
    "FHC001": "object-dtype value narrowed to fixed width without reduction",
    "FHC002": "integer narrowing with no visible range guard",
    "FHC003": "product of an unreduced sum taken mod q",
    "FHC004": "lazy/unclamped kernel result escapes without clamp",
    "FHC005": "fault-hook dereference outside an is-not-None guard",
    "FHC010": "suppression comment no longer suppresses any finding",
    "FHC011": "backend work awaited outside the deadline wrapper in repro.serve",
    "FHC012": "non-durable file write in repro.recover (no fsync evidence)",
}

_PATH_LINE_RE = re.compile(r"^(?P<path>[^\s:]+\.py):(?P<line>\d+)$")

_LEVELS = {"error": "error", "warning": "warning"}


def _result(finding: Finding) -> dict[str, Any]:
    result: dict[str, Any] = {
        "ruleId": finding.rule,
        "level": _LEVELS.get(finding.severity.value, "note"),
        "message": {"text": f"{finding.message} [{finding.source}]"},
    }
    match = _PATH_LINE_RE.match(finding.location)
    if match:
        result["locations"] = [{
            "physicalLocation": {
                "artifactLocation": {"uri": match["path"]},
                "region": {"startLine": int(match["line"])},
            },
        }]
    else:
        result["locations"] = [{
            "logicalLocations": [{
                "fullyQualifiedName": finding.location,
                "kind": "member",
            }],
        }]
    return result


def to_sarif(findings: Iterable[Finding], *,
             tool_version: str = "2.0") -> dict[str, Any]:
    """Render findings as a SARIF 2.1.0 log (a JSON-ready dict)."""
    findings = list(findings)
    used_rules = sorted({f.rule for f in findings} | set(RULE_DESCRIPTIONS))
    rules = [{
        "id": rule,
        "shortDescription": {
            "text": RULE_DESCRIPTIONS.get(rule, "fhecheck finding"),
        },
    } for rule in used_rules]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "fhecheck",
                    "informationUri":
                        "https://github.com/",
                    "version": tool_version,
                    "rules": rules,
                },
            },
            "results": [_result(f) for f in findings],
        }],
    }


def validate_sarif(payload: Any) -> list[str]:
    """Shape-check a SARIF envelope; returns problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    if payload.get("version") != SARIF_VERSION:
        problems.append(f"version must be {SARIF_VERSION!r}, "
                        f"got {payload.get('version')!r}")
    if not str(payload.get("$schema", "")).startswith("http"):
        problems.append("$schema missing or not a URI")
    runs = payload.get("runs")
    if not isinstance(runs, list) or not runs:
        return problems + ["runs must be a non-empty array"]
    for index, run in enumerate(runs):
        where = f"runs[{index}]"
        driver = (run.get("tool") or {}).get("driver") if isinstance(
            run, dict) else None
        if not isinstance(driver, dict) or not driver.get("name"):
            problems.append(f"{where}.tool.driver.name missing")
            continue
        rule_ids = {r.get("id") for r in driver.get("rules", [])
                    if isinstance(r, dict)}
        results = run.get("results")
        if not isinstance(results, list):
            problems.append(f"{where}.results must be an array")
            continue
        for rindex, result in enumerate(results):
            rwhere = f"{where}.results[{rindex}]"
            if not isinstance(result, dict):
                problems.append(f"{rwhere} is not an object")
                continue
            if not result.get("ruleId"):
                problems.append(f"{rwhere}.ruleId missing")
            elif rule_ids and result["ruleId"] not in rule_ids:
                problems.append(f"{rwhere}.ruleId {result['ruleId']!r} "
                                f"not declared by the driver")
            if result.get("level") not in ("error", "warning", "note",
                                           "none"):
                problems.append(f"{rwhere}.level invalid")
            message = result.get("message")
            if not (isinstance(message, dict) and message.get("text")):
                problems.append(f"{rwhere}.message.text missing")
            locations = result.get("locations")
            if not (isinstance(locations, list) and locations):
                problems.append(f"{rwhere}.locations missing")
    return problems
