"""Baseline mechanics and the `repro lint` CLI contract.

The baseline grandfathers known findings by line-number-free
fingerprint *count*; the CLI exits 0 when nothing is new, 1 on new
findings or unreadable input (one-line ``error:`` on stderr).
"""

import json
import textwrap

import pytest

from repro.cli import main
from repro.lint import (
    BaselineError,
    load_baseline,
    new_findings,
    run_lint,
    write_baseline,
)
from repro.lint.findings import Finding

VIOLATION = textwrap.dedent(
    """
    import time

    def job(rdd):
        return rdd.map(lambda x: (x, time.time())).collect()
    """
)


def _finding(message="m", rule="DET001", path="a.py", line=1):
    return Finding(rule=rule, path=path, line=line, col=0, message=message)


class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings = [_finding("one"), _finding("two")]
        path = str(tmp_path / "base.json")
        write_baseline(path, findings)
        counts = load_baseline(path)
        assert sum(counts.values()) == 2
        assert new_findings(findings, counts) == []

    def test_count_semantics(self, tmp_path):
        # Two occurrences of the same fingerprint vs a baseline of one:
        # exactly the excess occurrence is new.
        path = str(tmp_path / "base.json")
        write_baseline(path, [_finding("dup", line=3)])
        counts = load_baseline(path)
        now = [_finding("dup", line=3), _finding("dup", line=9)]
        assert len(new_findings(now, counts)) == 1

    def test_line_moves_do_not_invalidate(self, tmp_path):
        path = str(tmp_path / "base.json")
        write_baseline(path, [_finding("stable", line=10)])
        counts = load_baseline(path)
        assert new_findings([_finding("stable", line=200)], counts) == []

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(BaselineError):
            load_baseline(str(bad))

    def test_wrong_version_rejected(self, tmp_path):
        bad = tmp_path / "v99.json"
        bad.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(BaselineError):
            load_baseline(str(bad))

    def test_missing_baseline_means_all_new(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(VIOLATION)
        report = run_lint([str(mod)], baseline_path=str(tmp_path / "absent.json"))
        assert len(report.new) == len(report.findings) == 1
        assert not report.clean


class TestCli:
    def test_clean_scan_exits_zero(self, tmp_path, capsys):
        mod = tmp_path / "ok.py"
        mod.write_text("def f(rdd):\n    return rdd.map(lambda x: x).collect()\n")
        assert main(["lint", str(mod)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_new_finding_exits_one(self, tmp_path, capsys):
        mod = tmp_path / "bad.py"
        mod.write_text(VIOLATION)
        assert main(["lint", str(mod)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "NEW" in out

    def test_baselined_finding_exits_zero(self, tmp_path, capsys):
        mod = tmp_path / "bad.py"
        mod.write_text(VIOLATION)
        base = str(tmp_path / "base.json")
        assert main(["lint", str(mod), "--baseline", base, "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", str(mod), "--baseline", base]) == 0

    def test_json_format(self, tmp_path, capsys):
        mod = tmp_path / "bad.py"
        mod.write_text(VIOLATION)
        assert main(["lint", str(mod), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "DET001"

    def test_missing_path_one_line_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.py")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_syntax_error_one_line_error(self, tmp_path, capsys):
        mod = tmp_path / "broken.py"
        mod.write_text("def f(:\n")
        assert main(["lint", str(mod)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "syntax" in err

    def test_corrupt_baseline_one_line_error(self, tmp_path, capsys):
        mod = tmp_path / "ok.py"
        mod.write_text("x = 1\n")
        bad = tmp_path / "base.json"
        bad.write_text("{oops")
        assert main(["lint", str(mod), "--baseline", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_rules_catalogue(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rid in ("CAP001", "PCK001", "DET001", "SHF001",
                    "ACC001", "BRD001", "ACT001", "PLN001", "PLN002",
                    "LIF001", "LIF003", "RES001", "RES002"):
            assert rid in out

    def test_stats_flag(self, tmp_path, capsys):
        mod = tmp_path / "bad.py"
        mod.write_text(VIOLATION)
        assert main(["lint", str(mod), "--stats"]) == 1
        captured = capsys.readouterr()
        assert "DET001" in captured.err
        assert "call graph:" in captured.err
        assert "nodes" in captured.err and "SCCs" in captured.err

    def test_stats_in_json_payload(self, tmp_path, capsys):
        mod = tmp_path / "bad.py"
        mod.write_text(VIOLATION)
        assert main(["lint", str(mod), "--format", "json", "--stats"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["rules"] == {"DET001": 1}
        assert payload["stats"]["graph"]["nodes"] >= 2
        cfg = payload["stats"]["cfg"]
        assert cfg["functions"] >= 1
        assert cfg["blocks"] >= 3      # entry + exit + raise exit
        assert set(cfg) == {"functions", "blocks", "edges", "exc_edges"}

    def test_stats_text_reports_cfg_counts(self, tmp_path, capsys):
        mod = tmp_path / "bad.py"
        mod.write_text(VIOLATION)
        assert main(["lint", str(mod), "--stats"]) == 1
        err = capsys.readouterr().err
        assert "control flow:" in err
        assert "blocks" in err and "exceptional" in err

    def test_new_flow_finding_exits_one(self, tmp_path, capsys):
        # Exit-code contract for the flow rules: a fresh LIF001 with no
        # baseline is a new finding, so the CLI exits 1; grandfathering
        # it in a baseline returns the exit code to 0.
        mod = tmp_path / "flow.py"
        mod.write_text(
            "def f():\n"
            "    sc = SparkContext()\n"
            "    sc.stop()\n"
            "    sc.parallelize([1])\n"
        )
        assert main(["lint", str(mod)]) == 1
        capsys.readouterr()
        base = str(tmp_path / "base.json")
        assert main(["lint", str(mod), "--baseline", base,
                     "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", str(mod), "--baseline", base]) == 0

    def test_repo_gate(self, capsys):
        """The committed CI gate: src/ against the committed baseline."""
        assert main(["lint", "src", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
