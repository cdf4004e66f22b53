"""Sanitized runs must change *nothing* but the checking.

The acceptance bar for ``--sanitize``: a full SparkDBSCAN run under the
broadcast write-barrier produces labels byte-identical to the
unsanitized run — and stays byte-identical under fault injection,
speculation, and retries (retry determinism: recomputation via lineage
is a pure function of the partition) — and its trace carries no
``sanitizer.*`` event.
"""

import numpy as np
import pytest

from repro.data import generate_clustered
from repro.dbscan import NaiveSparkDBSCAN, SparkDBSCAN, SpatialSparkDBSCAN
from repro.engine import FaultPlan, SparkContext
from repro.kdtree import KDTree
from repro.obs import Tracer


def sanitizer_events(tracer):
    return [s.name for s in tracer.spans if s.name.startswith("sanitizer.")]


@pytest.fixture(scope="module")
def workload():
    g = generate_clustered(n=400, num_clusters=3, cluster_std=8.0, seed=7)
    tree = KDTree(g.points)
    return g, tree


class TestSanitizedEqualsPlain:
    def test_spark_dbscan_labels_byte_identical(self, workload):
        g, tree = workload
        plain = SparkDBSCAN(25.0, 5, num_partitions=4).fit(g.points, tree=tree)
        sanitized = SparkDBSCAN(25.0, 5, num_partitions=4, sanitize=True).fit(
            g.points, tree=tree
        )
        assert sanitized.labels.tobytes() == plain.labels.tobytes()
        assert sanitized.num_partial_clusters == plain.num_partial_clusters

    def test_spatial_labels_byte_identical(self, workload):
        g, _ = workload
        plain = SpatialSparkDBSCAN(25.0, 5, num_partitions=4).fit(g.points)
        sanitized = SpatialSparkDBSCAN(
            25.0, 5, num_partitions=4, sanitize=True
        ).fit(g.points)
        assert sanitized.labels.tobytes() == plain.labels.tobytes()

    def test_naive_labels_byte_identical(self, workload):
        g, _ = workload
        plain = NaiveSparkDBSCAN(25.0, 5, num_partitions=2).fit(g.points)
        sanitized = NaiveSparkDBSCAN(25.0, 5, num_partitions=2, sanitize=True).fit(
            g.points
        )
        assert sanitized.labels.tobytes() == plain.labels.tobytes()

    @pytest.mark.parametrize("master", ["threads[4]", "processes[2]"])
    def test_real_backends_equivalent(self, workload, master):
        # Parallel backends renumber clusters run-to-run (outcome
        # arrival order into the accumulator), with or without the
        # sanitizer — so the cross-backend bar is clustering
        # equivalence; byte identity is asserted on the deterministic
        # substrate above.
        from repro.dbscan import clusterings_equivalent

        g, tree = workload
        ref = SparkDBSCAN(25.0, 5, num_partitions=4).fit(g.points, tree=tree)
        with SparkContext(master, sanitize=True) as sc:
            res = SparkDBSCAN(25.0, 5, num_partitions=4).fit(
                g.points, sc=sc, tree=tree
            )
        ok, why = clusterings_equivalent(
            ref.labels, res.labels, g.points, 25.0, 5, tree=tree
        )
        assert ok, why

    def test_no_findings_on_clean_run(self, workload):
        g, tree = workload
        tracer = Tracer()
        with SparkContext("threads[4]", sanitize=True, tracer=tracer) as sc:
            SparkDBSCAN(25.0, 5, num_partitions=4).fit(g.points, sc=sc, tree=tree)
        assert tracer.spans and sanitizer_events(tracer) == []


class TestRetryDeterminism:
    def test_faults_and_speculation_under_sanitize(self, workload):
        """Property: for every (fault plan x speculation) configuration
        the sanitized labels are byte-identical to the unsanitized run
        of the *same* configuration, and equivalent to the sequential
        clustering.  (Retries can renumber cluster IDs — arrival order
        into the accumulator shifts — so the cross-configuration check
        is equivalence, not byte equality; the sanitize bit must never
        move a single byte.)"""
        from repro.dbscan import clusterings_equivalent, dbscan_sequential

        g, tree = workload
        seq = dbscan_sequential(g.points, 25.0, 5)
        plans = [
            lambda: FaultPlan(),
            lambda: FaultPlan(fail_attempts={(-1, 1): 2, (-1, 3): 1}),
            lambda: FaultPlan(fail_attempts={(-1, 0): 1}, delays={(-1, 2): 0.05}),
        ]
        for make_plan in plans:
            for speculation in (False, True):
                labels = {}
                for sanitize in (False, True):
                    tracer = Tracer()
                    with SparkContext(
                        "simulated[4]", sanitize=sanitize, speculation=speculation,
                        tracer=tracer,
                    ) as sc:
                        sc.fault_plan = make_plan()
                        res = SparkDBSCAN(25.0, 5, num_partitions=4).fit(
                            g.points, sc=sc, tree=tree
                        )
                    labels[sanitize] = res.labels
                    assert sanitizer_events(tracer) == []
                assert labels[True].tobytes() == labels[False].tobytes(), (
                    f"sanitize changed labels under plan={make_plan()} "
                    f"speculation={speculation}"
                )
                ok, why = clusterings_equivalent(
                    seq.labels, labels[True], g.points, 25.0, 5, tree=tree
                )
                assert ok, why

    def test_retried_mutation_still_fatal_with_faults(self, workload):
        """A broadcast mutation is fatal on its very first attempt even
        when the fault plan would otherwise grant retries."""
        from repro.engine import BroadcastMutationError

        with SparkContext("local", sanitize=True, max_task_failures=4) as sc:
            b = sc.broadcast(np.zeros(4))
            attempts: list[int] = []

            def mutate(x):
                attempts.append(x)
                b.value[0] += 1
                return x

            with pytest.raises(BroadcastMutationError):
                sc.parallelize(range(2), 1).map(mutate).collect()
            assert len(attempts) == 2  # one partition pass, no retries
