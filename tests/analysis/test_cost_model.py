"""Section IV-C cost model sanity and calibration."""

import pytest

from repro.analysis import (
    CalibratedCostModel,
    CostModel,
    WorkloadParams,
    search_time_lower,
    search_time_upper,
)
from repro.analysis.cost_model import merge_input_class, merge_units


@pytest.fixture
def params():
    return WorkloadParams(n=100_000, d=10, m=500, K=300, delta=10.0,
                          t_straggling=5.0)


class TestSearchTimeBounds:
    def test_lower_is_log(self, params):
        assert search_time_lower(params) == pytest.approx(16.6096, rel=1e-3)

    def test_upper_dominates_lower(self, params):
        assert search_time_upper(params) > search_time_lower(params)

    def test_v_interpolates(self, params):
        lo = CostModel(params, v_weight=0.0).V
        mid = CostModel(params, v_weight=0.5).V
        hi = CostModel(params, v_weight=1.0).V
        assert lo < mid < hi
        assert lo == pytest.approx(search_time_lower(params))
        assert hi == pytest.approx(search_time_upper(params))


class TestCostModel:
    def test_speedup_at_one_core_is_near_one(self, params):
        m = CostModel(params)
        assert m.speedup(1) <= 1.0 + 1e-9

    def test_speedup_monotone_and_efficiency_decays(self, params):
        m = CostModel(params)
        cores = (1, 2, 4, 8, 16, 32, 64)
        s = [m.speedup(p) for p in cores]
        assert s == sorted(s)  # monotone in p
        eff = [si / p for si, p in zip(s, cores)]
        assert all(a >= b - 1e-12 for a, b in zip(eff, eff[1:]))  # sub-linear

    def test_speedup_bounded_by_serial_fraction(self, params):
        """Amdahl-style cap: the non-parallel work bounds the speedup."""
        m = CostModel(params)
        serial = m.build_time() + m.merge_time() + m.params.m * m.V
        cap = m.sequential_time() / serial
        assert m.speedup(10**6) <= cap + 1e-9

    def test_more_partial_clusters_hurt_speedup(self):
        base = WorkloadParams(n=100_000, m=100, K=300)
        heavy = WorkloadParams(n=100_000, m=20_000, K=300)
        assert CostModel(heavy).speedup(32) < CostModel(base).speedup(32)

    def test_straggler_wait_hurts_parallel_only(self):
        quiet = WorkloadParams(n=10_000, m=10)
        noisy = WorkloadParams(n=10_000, m=10, t_straggling=1e6)
        assert CostModel(noisy).speedup(8) < CostModel(quiet).speedup(8)
        assert CostModel(noisy).sequential_time() == CostModel(quiet).sequential_time()

    def test_validation(self, params):
        with pytest.raises(ValueError):
            CostModel(params, v_weight=1.5)
        with pytest.raises(ValueError):
            CostModel(params).parallel_time(0)
        with pytest.raises(ValueError):
            WorkloadParams(n=0)


class TestCalibratedModel:
    def test_fit_reproduces_measured_point(self, params):
        m = CalibratedCostModel.fit(params, measured_executor_total=20.0,
                                    measured_merge=2.0)
        # At p=1 (ignoring the m*query term) the model should be close to
        # delta + executor + merge.
        assert m.sequential_time() == pytest.approx(
            params.delta + 20.0 + 2.0, rel=1e-6
        )

    def test_predicted_speedup_shape(self, params):
        m = CalibratedCostModel.fit(params, 20.0, 2.0)
        s = [m.speedup(p) for p in (1, 2, 4, 8, 16)]
        assert s == sorted(s)
        assert s[0] <= 1.0 + 1e-9

    def test_rejects_negative_measurements(self, params):
        with pytest.raises(ValueError):
            CalibratedCostModel.fit(params, -1.0, 1.0)


class TestSizeClassedMergeTerm:
    """The driver-merge term comes from the statically checked size
    classes: `merge_input_class` reads the plan's SIZE_MANIFEST, and
    `merge_units` maps the class to model units."""

    def test_partials_plans_merge_opoints(self):
        # The paper's plans collect whole partials: n + K·m applies.
        for plan in ("spark", "sequential", "cell", "mapreduce"):
            assert merge_input_class(plan) == "O(points)"

    def test_edges_plans_merge_oedges(self):
        for plan in ("spark_edges", "cell_edges"):
            assert merge_input_class(plan) == "O(edges)"

    def test_unknown_plan_is_rejected(self):
        with pytest.raises(ValueError, match="unknown plan"):
            merge_input_class("nope")

    def test_units_by_class(self):
        p = WorkloadParams(n=1000, m=8, K=50)
        assert merge_units(p, "O(points)") == 1000 + 50 * 8
        assert merge_units(p, "O(edges)") == 50 * 8 + 8
        assert merge_units(p, "O(partials)") == 8.0
        assert merge_units(p, "O(cells)") == 8.0
        assert merge_units(p, "O(1)") == 1.0
        with pytest.raises(ValueError, match="unknown size class"):
            merge_units(p, "O(n^2)")

    def test_unit_ordering_follows_the_lattice(self):
        p = WorkloadParams(n=100_000, m=500, K=300)
        classes = ("O(1)", "O(cells)", "O(partials)", "O(edges)", "O(points)")
        units = [merge_units(p, c) for c in classes]
        assert all(a <= b for a, b in zip(units, units[1:]))

    def test_merge_time_takes_a_size_class(self, params):
        m = CostModel(params)
        assert m.merge_time() == merge_units(params, "O(points)")
        assert m.merge_time(merge_input_class("spark_edges")) == \
            merge_units(params, "O(edges)")
        assert m.merge_time("O(edges)") < m.merge_time("O(points)")

    def test_calibrated_model_uses_declared_class(self, params):
        # Same measured seconds, different declared merge class: the
        # fitted per-unit cost differs, but the fit must reproduce the
        # measured point either way.
        for cls in ("O(points)", "O(edges)"):
            m = CalibratedCostModel.fit(
                params, measured_executor_total=20.0, measured_merge=2.0,
                merge_size_class=cls,
            )
            assert m.merge_size_class == cls
            assert m.sequential_time() == pytest.approx(
                params.delta + 20.0 + 2.0, rel=1e-6
            )

    def test_edge_merge_predicts_better_speedup(self, params):
        # The merge term is serial: shrinking it from O(points) to
        # O(edges) raises the predicted speedup at every p > 1.
        points = CalibratedCostModel.fit(params, 20.0, 2.0,
                                         merge_size_class="O(points)")
        # Fit the per-unit cost at the O(points) operating point, then
        # predict with the edge-sized term (fewer units, same unit cost).
        edges = CalibratedCostModel(
            params=params, query_cost=points.query_cost,
            merge_unit_cost=points.merge_unit_cost,
            merge_size_class="O(edges)",
        )
        for p in (2, 8, 32):
            assert edges.speedup(p) > points.speedup(p)
