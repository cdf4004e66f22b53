"""SHF001 as a reachability proof over the whole program.

The headline case is a helper in a *new* module calling
``reduce_by_key``, reachable from a ``LocalExpand`` stage — invisible to
a path allowlist, caught by the call graph.
"""

from .fixture_sources import rules_of


class TestShuffleFreeProof:
    def test_seeded_groupbykey_behind_helper(self, package):
        # The acceptance-criteria fixture: LocalExpand -> helper module
        # -> reduce_by_key.  No allowlist mentions helpers.py; the lineage
        # proof still finds it.
        findings = package({
            "helpers.py": """
                def regroup(rdd):
                    return rdd.reduce_by_key(min)
                """,
            "stages.py": """
                from .helpers import regroup

                class LocalExpand:
                    def run(self, rdd):
                        return regroup(rdd)
                """,
        })
        hits = [f for f in findings if f.rule == "SHF001"]
        assert hits, findings
        assert any(
            f.path.endswith("helpers.py") and "reduce_by_key" in f.message
            for f in hits
        )

    def test_same_helper_unreachable_is_fine(self, package):
        # Identical helper, but nothing on the paper pipeline calls it.
        findings = package({
            "helpers.py": """
                def regroup(rdd):
                    return rdd.reduce_by_key(min)
                """,
            "stages.py": """
                class LocalExpand:
                    def run(self, rdd):
                        return rdd.map_partitions(list)
                """,
        })
        assert "SHF001" not in rules_of(findings)

    def test_wide_api_two_hops_away(self, package):
        findings = package({
            "inner.py": """
                def shuffle_sort(rdd):
                    return rdd.reduce_by_key(max)
                """,
            "outer.py": """
                from .inner import shuffle_sort

                def prepare(rdd):
                    return shuffle_sort(rdd)
                """,
            "front.py": """
                from .outer import prepare

                class SparkDBSCAN:
                    def fit(self, rdd):
                        return prepare(rdd)
                """,
        })
        assert any(
            f.rule == "SHF001" and f.path.endswith("inner.py")
            for f in findings
        )

    def test_shuffle_import_in_hosting_module(self, package):
        findings = package({
            "helpers.py": """
                from repro.engine.shuffle import ShuffleManager

                def passthrough(rdd):
                    return rdd
                """,
            "front.py": """
                from .helpers import passthrough

                class SparkDBSCAN:
                    def fit(self, rdd):
                        return passthrough(rdd)
                """,
        })
        assert any(
            f.rule == "SHF001"
            and f.path.endswith("helpers.py")
            and "shuffle" in f.message
            for f in findings
        )
