"""The `repro lint` CLI contract: exit 0 on a clean scan, 1 on any
finding (there is no baseline to grandfather one), 2 with a one-line
``error:`` on stderr when the input could not be analysed at all.
"""

import json
import textwrap

from repro.cli import main
from repro.lint import run_lint
from repro.lint.findings import Reporter

VIOLATION = textwrap.dedent(
    """
    import time

    def job(rdd):
        return rdd.map(lambda x: (x, time.time())).collect()
    """
)


def _report(*lines, message="stable"):
    reporter = Reporter()
    for line in lines:
        reporter.report("DET001", "a.py", line, 0, message)
    return reporter.findings


class TestBaseline:
    def test_round_trip(self, tmp_path):
        # Findings survive the JSON report with their identity intact.
        mod = tmp_path / "mod.py"
        mod.write_text(VIOLATION)
        report = run_lint([str(mod)])
        payload = json.loads(report.render_json())["findings"]
        assert [(p["rule"], p["line"], p["fingerprint"]) for p in payload] == \
            [(f.rule, f.line, f.fingerprint) for f in report.findings]

    def test_count_semantics(self):
        # Two occurrences of one fingerprint are two findings: sites
        # are folded by location, never by identity.
        assert len(_report(3, 9)) == 2
        assert len(_report(3, 3)) == 1

    def test_line_moves_do_not_invalidate(self):
        (before,), (after,) = _report(10), _report(200)
        assert before.fingerprint == after.fingerprint

    def test_missing_baseline_means_all_new(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(VIOLATION)
        report = run_lint([str(mod)])
        assert len(report.findings) == 1
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
        assert "DET001" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        mod = tmp_path / "bad.py"
        mod.write_text(VIOLATION)
        assert main(["lint", str(mod), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "DET001"

    def test_missing_path_one_line_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.py")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_syntax_error_one_line_error(self, tmp_path, capsys):
        mod = tmp_path / "broken.py"
        mod.write_text("def f(:\n")
        assert main(["lint", str(mod)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "syntax" in err

    def test_diverged_fixpoint_names_the_function(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("repro.lint.dataflow.MAX_ITERATIONS", 1)
        mod = tmp_path / "loop.py"
        mod.write_text("def spin(xs):\n    for x in xs:\n        pass\n")
        assert main(["lint", str(mod)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "loop.py:spin" in err
        assert len(err.strip().splitlines()) == 1

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
        assert "modules: 1" in captured.err

    def test_stats_in_json_payload(self, tmp_path, capsys):
        mod = tmp_path / "bad.py"
        mod.write_text(VIOLATION)
        assert main(["lint", str(mod), "--format", "json", "--stats"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["rules"] == {"DET001": 1}
        assert payload["stats"]["modules"] == 1
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
        # Exit-code contract for the flow rules: a LIF001 fails the run
        # exactly like a scope-rule finding.
        mod = tmp_path / "flow.py"
        mod.write_text(
            "def f():\n"
            "    sc = SparkContext()\n"
            "    sc.stop()\n"
            "    sc.parallelize([1])\n"
        )
        assert main(["lint", str(mod)]) == 1
        assert "LIF001" in capsys.readouterr().out

    def test_repo_gate(self, src_report):
        """The committed CI gate: src/ has no finding at all."""
        payload = json.loads(src_report.render_json())
        assert payload["clean"] is True and payload["findings"] == []
