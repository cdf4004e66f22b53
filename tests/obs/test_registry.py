"""MetricsRegistry instruments, exposition, and the fold of spans."""

import math
from dataclasses import asdict

import pytest

from repro.dbscan.partial import OpCounters
from repro.obs import MetricsRegistry, Span, fold_trace, parse_exposition
from repro.obs.registry import Counter, Gauge, Histogram


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("hits_total", labelnames=("kind",))
        c.inc(kind="a")
        c.inc(2, kind="a")
        c.inc(kind="b")
        assert c.value(kind="a") == 3
        assert c.value(kind="b") == 1
        assert c.value(kind="never") == 0

    def test_rejects_negative_increment(self):
        c = Counter("hits_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_rejects_wrong_labels(self):
        c = Counter("hits_total", labelnames=("kind",))
        with pytest.raises(ValueError):
            c.inc(other="x")
        with pytest.raises(ValueError):
            c.inc()

    def test_rejects_bad_names(self):
        with pytest.raises(ValueError):
            Counter("0bad")
        with pytest.raises(ValueError):
            Counter("ok_total", labelnames=("bad-label",))


class TestGauge:
    def test_set_inc_and_negative(self):
        g = Gauge("level")
        g.set(5)
        g.inc(-2)
        assert g.value() == 3


class TestHistogram:
    def test_buckets_are_cumulative(self):
        h = Histogram("lat_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count() == 3
        assert h.sum() == pytest.approx(5.55)
        text = h.expose()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text

    def test_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())


class TestRegistry:
    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "help", ("k",))
        b = reg.counter("x_total", "different help", ("k",))
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_labelnames_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=("a",))
        with pytest.raises(ValueError):
            reg.counter("x_total", labelnames=("b",))

    def test_get(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        assert reg.get("x_total") is c
        assert reg.get("missing") is None

    def test_exposition_parses_and_roundtrips(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("req_total", "Requests.", ("path",)).inc(3, path='/a"b\\c')
        reg.gauge("temp", "Temperature.").set(21.5)
        reg.histogram("dur_seconds", "Durations.", buckets=(1.0,)).observe(0.5)
        path = str(tmp_path / "m.prom")
        reg.write(path)
        with open(path) as f:
            text = f.read()
        samples = parse_exposition(text)
        assert samples["req_total"] == [({"path": '/a"b\\c'}, 3.0)]
        assert samples["temp"] == [({}, 21.5)]
        les = [lab["le"] for lab, _v in samples["dur_seconds_bucket"]]
        assert les == ["1", "+Inf"]

    def test_empty_exposition(self):
        assert MetricsRegistry().exposition() == ""


class TestParseExposition:
    def test_rejects_malformed_sample(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_exposition("# TYPE x counter\nx{unclosed 1\n")

    def test_rejects_bad_type_line(self):
        with pytest.raises(ValueError, match="TYPE"):
            parse_exposition("# TYPE x wibble\n")

    def test_rejects_untyped_sample(self):
        with pytest.raises(ValueError, match="no preceding TYPE"):
            parse_exposition("x_total 1\n")

    def test_inf_value(self):
        out = parse_exposition('# TYPE h histogram\nh_bucket{le="+Inf"} 2\n')
        assert out["h_bucket"][0][1] == 2.0
        assert out["h_bucket"][0][0] == {"le": "+Inf"}
        assert math.isinf(
            parse_exposition("# TYPE g gauge\ng +Inf\n")["g"][0][1]
        )


def attempt(partition, attempt=0, run_time=0.0, **labels):
    """A task-attempt span as `DAGScheduler._record` grafts it (stage 0)."""
    labels = {"stage_id": 0, "partition": partition, "attempt": attempt,
              "succeeded": True, **labels}
    return Span(f"task[s0,p{partition}]", cat="engine", end=run_time,
                labels=labels)


class TestBridges:
    """The registry as a fold of spans (`fold_trace`)."""

    def test_record_task_metrics(self):
        reg = MetricsRegistry()
        fold_trace(reg, [
            attempt(0, run_time=0.2, shuffle_bytes_written=100,
                    shuffle_bytes_read=40),
            attempt(1, run_time=0.1, succeeded=False),
        ])
        attempts = reg.get("repro_task_attempts_total")
        assert attempts.value(stage=0, outcome="succeeded") == 1
        assert attempts.value(stage=0, outcome="failed") == 1
        hist = reg.get("repro_task_run_seconds")
        assert hist.count(stage=0) == 2
        assert reg.get("repro_shuffle_bytes_written_total").value(stage=0) == 100
        assert reg.get("repro_shuffle_bytes_read_total").value(stage=0) == 40

    def test_cpu_histogram_observes_each_attempt(self):
        reg = MetricsRegistry()
        fold_trace(reg, [attempt(0, cpu_time=0.3), attempt(1, cpu_time=0.1)])
        cpu = reg.get("repro_task_cpu_seconds")
        assert cpu.count(stage=0) == 2
        assert cpu.sum(stage=0) == pytest.approx(0.4)

    def test_peak_rss_gauge_keeps_the_max_not_the_sum(self):
        # RSS is a process high-water mark: summing a partition's
        # attempts would overstate memory; the gauge keeps the max.
        reg = MetricsRegistry()
        fold_trace(reg, [attempt(1, a, peak_rss=rss)
                         for a, rss in enumerate((100, 300, 200))])
        gauge = reg.get("repro_task_peak_rss_bytes")
        assert gauge.value(stage=0, partition=1) == 300

    def test_unmeasured_rss_leaves_no_gauge(self):
        reg = MetricsRegistry()
        fold_trace(reg, [attempt(0, peak_rss=0)])
        assert reg.get("repro_task_peak_rss_bytes") is None

    def test_record_op_counters_skips_zero_cells(self):
        reg = MetricsRegistry()
        counts = asdict(OpCounters(range_queries=7, queue_adds=3))
        fold_trace(reg, [Span("pipeline.stage", cat="pipeline", labels={
            "stage": "CollectPartials", "status": "restored",
            "ops": {2: counts}})])
        ops = reg.get("repro_dbscan_ops_total")
        assert ops.value(op="range_queries", partition=2) == 7
        assert ops.value(op="queue_adds", partition=2) == 3
        assert ops.value(op="hashtable_puts", partition=2) == 0
        # zero cells are not exposed at all
        assert 'op="hashtable_puts"' not in reg.exposition()
