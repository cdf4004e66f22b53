"""One catalogue, four mirrors: the registered rules, the ``--rules``
CLI listing, the SARIF rule descriptors, and the rule tables in
README.md / DESIGN.md must all agree on the same seventeen rule ids.
A rule added to any one of them without the others fails here.
"""

import re

from repro.cli import main
from repro.lint import rule_catalogue, run_lint, to_sarif

CATALOGUE = [
    "ACC001",
    "ACT001",
    "BRD001",
    "CAP001",
    "DET001",
    "LIF001",
    "LIF003",
    "PCK001",
    "PLN001",
    "PLN002",
    "RES001",
    "RES002",
    "SCL001",
    "SCL002",
    "SCL003",
    "SCL004",
    "SHF001",
]

RULE_ID = re.compile(r"\b[A-Z]{3}\d{3}\b")


class TestCatalogueParity:
    def test_registry_is_the_pinned_eighteen(self):
        # seventeen since LIF002 went with the EventLog; the id is kept
        assert sorted(rule_catalogue()) == CATALOGUE

    def test_every_rule_has_a_summary(self):
        for rid, summary in rule_catalogue().items():
            assert summary and summary[0].isupper() or summary[0].islower()
            assert len(summary) < 120, f"{rid} summary should be one line"

    def test_cli_rules_listing_matches(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines() if line.strip()]
        assert sorted(listed) == CATALOGUE

    def test_sarif_descriptors_match(self, tmp_path):
        mod = tmp_path / "ok.py"
        mod.write_text("def f(x):\n    return x\n")
        log = to_sarif(run_lint([str(mod)]))
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == CATALOGUE

    def test_readme_documents_every_rule(self):
        with open("README.md", encoding="utf-8") as f:
            text = f.read()
        assert "seventeen-rule" in text, "README must count the catalogue"
        assert "eighteen-rule" not in text
        missing = [rid for rid in CATALOGUE if rid not in RULE_ID.findall(text)]
        assert not missing, f"README.md does not mention: {missing}"

    def test_design_rule_table_has_every_rule(self):
        with open("DESIGN.md", encoding="utf-8") as f:
            text = f.read()
        table = text.split("### 8.2 Rule catalogue")[1].split("### 8.3")[0]
        rows = [
            line.split("|")[1].strip()
            for line in table.splitlines()
            if line.startswith("| ") and RULE_ID.fullmatch(
                line.split("|")[1].strip()
            )
        ]
        assert sorted(rows) == CATALOGUE
