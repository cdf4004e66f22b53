"""SARIF 2.1.0 emission for lint reports (``repro lint --format sarif``).

One run, one tool (``repro-lint``), one result per finding.  The
emitter sticks to the stable core of the spec so CI's ``upload-sarif``
can annotate PR diffs:

- the *full* rule catalogue appears in ``tool.driver.rules`` with its
  one-line summaries (so catalogue parity is checkable from the SARIF
  alone), and each result links back via ``ruleId``/``ruleIndex``;
- locations use repo-relative POSIX URIs and 1-based line/column
  regions (lint columns are 0-based AST offsets);
- the linter's own line-free fingerprint rides along as a
  ``partialFingerprints`` entry, so a consumer can track a finding
  across edits above it;
- flow findings (RES001, SCL*) carry ``relatedLocations`` pointing back
  at the persist site or taint source the message refers to.
"""

from __future__ import annotations

import json

from .findings import Finding, LintReport

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
FINGERPRINT_KEY = "reproLint/v1"
TOOL_NAME = "repro-lint"


def _result(finding: Finding, rule_index: dict[str, int]) -> dict:
    uri = finding.path.replace("\\", "/").lstrip("./")
    related = [
        {
            "physicalLocation": {
                "artifactLocation": {"uri": rpath.replace("\\", "/").lstrip("./")},
                "region": {"startLine": max(rline, 1)},
            },
            "message": {"text": rmessage},
        }
        for (rpath, rline, rmessage) in finding.related
    ]
    return {
        "ruleId": finding.rule,
        "ruleIndex": rule_index[finding.rule],
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": uri},
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": finding.col + 1,
                    },
                },
                **(
                    {"logicalLocations": [{"fullyQualifiedName": finding.symbol}]}
                    if finding.symbol
                    else {}
                ),
            }
        ],
        **({"relatedLocations": related} if related else {}),
        "partialFingerprints": {FINGERPRINT_KEY: finding.fingerprint},
    }


def to_sarif(report: LintReport, catalogue: dict[str, str] | None = None) -> dict:
    """The report as a SARIF 2.1.0 log (a plain JSON-ready dict)."""
    if catalogue is None:
        from .rules import rule_catalogue

        catalogue = rule_catalogue()
    # The whole catalogue, not just the fired rules: rule descriptors
    # are the machine-readable half of the catalogue parity contract.
    ids = sorted(set(catalogue) | {f.rule for f in report.findings})
    rules = [
        {
            "id": rid,
            "name": rid,
            "shortDescription": {
                "text": catalogue.get(rid, "repro lint rule"),
            },
            "defaultConfiguration": {"level": "error"},
        }
        for rid in ids
    ]
    rule_index = {rid: i for i, rid in enumerate(ids)}
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "rules": rules,
                    }
                },
                "columnKind": "unicodeCodePoints",
                "results": [_result(f, rule_index) for f in report.findings],
            }
        ],
    }


def render_sarif(report: LintReport) -> str:
    """The report serialized as a SARIF 2.1.0 JSON document."""
    return json.dumps(to_sarif(report), indent=2)
