"""The static RDD-lineage rules: SHF001 as a reachability proof, plus
the task-dataflow trio ACC001/BRD001/ACT001 (positive and negative
fixtures for each).

The headline case is the ISSUE's seeded violation: a helper in a *new*
module calling ``reduce_by_key``, reachable from a ``LocalExpand`` stage —
invisible to a path allowlist, caught by the call graph.
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


class TestAccumulatorReads:
    def test_value_read_in_task(self, package):
        findings = package({
            "job.py": """
                def job(sc):
                    acc = sc.accumulator(0)
                    rdd = sc.parallelize(range(10))

                    def work(x):
                        acc.add(1)
                        return acc.value

                    return rdd.map(work).collect()
                """,
        })
        assert any(
            f.rule == "ACC001" and "'acc'" in f.message for f in findings
        )

    def test_driver_side_read_is_fine(self, package):
        findings = package({
            "job.py": """
                def job(sc):
                    acc = sc.accumulator(0)
                    rdd = sc.parallelize(range(10))

                    def work(x):
                        acc.add(1)
                        return x

                    out = rdd.map(work).collect()
                    return out, acc.value
                """,
        })
        assert "ACC001" not in rules_of(findings)


class TestBroadcastMutations:
    def test_subscript_assignment_in_task(self, package):
        findings = package({
            "job.py": """
                def job(sc):
                    b = sc.broadcast({})
                    rdd = sc.parallelize(range(10))

                    def work(x):
                        b.value[x] = x
                        return x

                    return rdd.map(work).collect()
                """,
        })
        assert any(
            f.rule == "BRD001" and "'b'" in f.message for f in findings
        )

    def test_mutator_method_in_task(self, package):
        findings = package({
            "job.py": """
                def job(sc):
                    b = sc.broadcast([])
                    rdd = sc.parallelize(range(10))

                    def work(x):
                        b.value.append(x)
                        return x

                    return rdd.map(work).collect()
                """,
        })
        assert any(
            f.rule == "BRD001" and ".append()" in f.message for f in findings
        )

    def test_reading_broadcast_is_fine(self, package):
        # Reading b.value in a task is the whole point of a broadcast.
        findings = package({
            "job.py": """
                def job(sc):
                    b = sc.broadcast({1: "a"})
                    rdd = sc.parallelize(range(10))
                    return rdd.map(lambda x: b.value.get(x)).collect()
                """,
        })
        assert "BRD001" not in rules_of(findings)


class TestRddActions:
    def test_action_inside_task(self, package):
        findings = package({
            "job.py": """
                def job(sc):
                    rdd = sc.parallelize(range(10))
                    other = sc.parallelize(range(10))

                    def work(x):
                        return x + other.count()

                    return rdd.map(work).collect()
                """,
        })
        assert any(
            f.rule == "ACT001" and ".count()" in f.message for f in findings
        )

    def test_driver_side_action_is_fine(self, package):
        findings = package({
            "job.py": """
                def job(sc):
                    rdd = sc.parallelize(range(10))
                    out = rdd.map(lambda x: x + 1).collect()
                    return len(out), rdd.count()
                """,
        })
        assert "ACT001" not in rules_of(findings)
