"""Fingerprint stability: the identity a finding carries into SARIF
(``partialFingerprints``) must survive the two most common repo
refactors — code moving to different lines, and directories being
renamed around an unchanged file."""

import textwrap

from repro.lint import run_lint

VIOLATION = textwrap.dedent(
    """
    class LocalExpand:
        def run(self, rdd):
            return rdd.reduce_by_key(min)
    """
)

# A flow-sensitive leak (RES001): its fingerprint must be just as line-
# and directory-free as the scope rules', even though the *related*
# site (the persist line) moves.
FLOW_VIOLATION = textwrap.dedent(
    """
    def leaky(sc):
        rdd = sc.parallelize(range(10))
        rdd.persist()
        return rdd.count()
    """
)


# A size-class pair (SCL001 + SCL002): the module carries its own plan
# + size manifests, so the scope machinery sees the stage wherever the
# file lives — the fingerprints must survive the same refactors.
SCL_VIOLATION = textwrap.dedent(
    """
    import numpy as np

    class Work:
        name = "Work"
        provides = ("out",)

        def run(self, state):
            snapshot = np.sort(state.points)
            for row in state.points:
                snapshot = snapshot
            return snapshot

    STAGE_MANIFEST = {"cell": ("Work",)}
    SHUFFLE_FREE_PLANS = ("cell",)
    SIZE_MANIFEST = {"Work": {"input": "O(points)", "output": "O(edges)"}}
    """
)


def _lint(path, rules):
    findings = [f for f in run_lint([str(path)]).findings if f.rule in rules]
    assert {f.rule for f in findings} == set(rules), (
        "fixture must produce its findings"
    )
    return sorted(findings, key=lambda f: f.rule)


def _fingerprints(findings):
    return [f.fingerprint for f in findings]


def moved(tmp_path, source, pad, rules=("SHF001",)):
    """The source's findings before and after ``pad`` goes above it."""
    mod = tmp_path / "mod.py"
    mod.write_text(source)
    before = _lint(mod, rules)
    mod.write_text(pad + source)
    after = _lint(mod, rules)
    assert [f.line for f in before] != [f.line for f in after]
    return before, after


def renamed(tmp_path, source, old, new, rules=("SHF001",)):
    """The source's findings as ``old`` and as ``new`` (relative paths)."""
    found = []
    for rel in (old, new):
        path = tmp_path / rel
        path.parent.mkdir(exist_ok=True)
        path.write_text(source)
        found.append(_lint(path, rules))
    return found


class TestLineMoves:
    def test_padding_above_keeps_fingerprint(self, tmp_path):
        before, after = moved(tmp_path, VIOLATION, "# comment\n" * 40)
        assert _fingerprints(before) == _fingerprints(after)

    def test_moved_finding_stays_baselined(self, tmp_path):
        before, after = moved(tmp_path, VIOLATION, "\n" * 25)
        assert _fingerprints(before) == _fingerprints(after)


class TestDirectoryRenames:
    def test_rename_keeps_fingerprint(self, tmp_path):
        old, new = renamed(
            tmp_path, VIOLATION, "dbscan/mod.py", "clustering/mod.py"
        )
        assert _fingerprints(old) == _fingerprints(new)

    def test_renamed_directory_stays_baselined(self, tmp_path):
        old, new = renamed(
            tmp_path, VIOLATION, "pipelines/mod.py", "plans/mod.py"
        )
        assert _fingerprints(old) == _fingerprints(new)

    def test_basename_change_is_new(self, tmp_path):
        # The file's own name *does* participate: renaming the file
        # itself is a new identity, only its directories are free.
        old, new = renamed(tmp_path, VIOLATION, "mod.py", "other.py")
        assert _fingerprints(old) != _fingerprints(new)


FLOW = ("RES001",)


class TestFlowFindingStability:
    """Same stability guarantees for the flow-sensitive rules (PR 8)."""

    def test_padding_above_keeps_flow_fingerprints(self, tmp_path):
        before, after = moved(
            tmp_path, FLOW_VIOLATION, "# comment\n" * 40, FLOW
        )
        # related sites moved too — they must not feed the fingerprint
        assert [f.related[0][1] for f in before] != \
            [f.related[0][1] for f in after]
        assert _fingerprints(before) == _fingerprints(after)

    def test_moved_flow_finding_stays_baselined(self, tmp_path):
        before, after = moved(tmp_path, FLOW_VIOLATION, "\n" * 25, FLOW)
        assert _fingerprints(before) == _fingerprints(after)

    def test_directory_rename_keeps_flow_fingerprints(self, tmp_path):
        old, new = renamed(
            tmp_path, FLOW_VIOLATION, "engine/mod.py", "core/mod.py", FLOW
        )
        assert _fingerprints(old) == _fingerprints(new)

    def test_renamed_directory_stays_baselined_for_flow_rules(self, tmp_path):
        old, new = renamed(
            tmp_path, FLOW_VIOLATION, "pipelines/mod.py", "plans/mod.py", FLOW
        )
        assert _fingerprints(old) == _fingerprints(new)


SCL = ("SCL001", "SCL002")


class TestSizeClassFindingStability:
    """Same stability guarantees for the size-class rules."""

    def test_padding_above_keeps_scl_fingerprints(self, tmp_path):
        before, after = moved(tmp_path, SCL_VIOLATION, "# comment\n" * 40, SCL)
        assert _fingerprints(before) == _fingerprints(after)

    def test_moved_scl_finding_stays_baselined(self, tmp_path):
        before, after = moved(tmp_path, SCL_VIOLATION, "\n" * 25, SCL)
        assert _fingerprints(before) == _fingerprints(after)

    def test_directory_rename_keeps_scl_fingerprints(self, tmp_path):
        old, new = renamed(
            tmp_path, SCL_VIOLATION, "dbscan/mod.py", "clustering/mod.py", SCL
        )
        assert _fingerprints(old) == _fingerprints(new)
