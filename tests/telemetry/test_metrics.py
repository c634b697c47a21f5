"""Metrics tests: instruments, bucket semantics, registry, SimMetrics."""

import math

import pytest

from repro.apps.bump_in_the_wire import bitw_simulation
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SimMetrics,
    log_bucket_edges,
    report_summaries,
)
from repro.units import MiB


class TestBucketEdges:
    def test_default_span_and_monotonicity(self):
        edges = log_bucket_edges()
        assert edges[0] == pytest.approx(1e-7)
        assert edges[-1] == pytest.approx(1e3)
        assert all(a < b for a, b in zip(edges, edges[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            log_bucket_edges(lo=0.0)
        with pytest.raises(ValueError):
            log_bucket_edges(lo=2.0, hi=1.0)
        with pytest.raises(ValueError):
            log_bucket_edges(per_decade=0)


class TestCounter:
    def test_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert c.snapshot() == {"type": "counter", "value": 3.5}

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_tracks_extremes(self):
        g = Gauge()
        for v in (3.0, -1.0, 2.0):
            g.set(v)
        snap = g.snapshot()
        assert snap["value"] == 2.0
        assert snap["max"] == 3.0 and snap["min"] == -1.0
        assert snap["updates"] == 3

    def test_empty_snapshot(self):
        snap = Gauge().snapshot()
        assert snap["max"] is None and snap["min"] is None


class TestHistogram:
    def test_edge_value_goes_to_next_bucket(self):
        """Buckets are [lo, hi): a sample exactly on an edge lands in the
        bucket whose *lower* edge it is."""
        h = Histogram([1.0, 2.0, 4.0])
        h.observe(2.0)
        assert h.counts.tolist() == [0, 0, 1, 0]

    def test_underflow_and_overflow(self):
        h = Histogram([1.0, 2.0])
        h.observe(0.5)
        h.observe(99.0)
        assert h.counts.tolist() == [1, 0, 1]
        assert h.vmin == 0.5 and h.vmax == 99.0

    def test_mean_is_exact_not_quantised(self):
        h = Histogram([1.0, 10.0])
        for v in (0.25, 0.75, 3.5):
            h.observe(v)
        assert h.mean == pytest.approx((0.25 + 0.75 + 3.5) / 3)

    def test_quantile_estimates(self):
        h = Histogram([1.0, 2.0, 4.0, 8.0])
        for _ in range(99):
            h.observe(1.5)
        h.observe(5.0)
        assert h.quantile(0.5) == 2.0  # upper edge of the [1,2) bucket
        assert h.quantile(1.0) == 8.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_empty_stats_are_nan(self):
        h = Histogram([1.0, 2.0])
        assert math.isnan(h.mean) and math.isnan(h.quantile(0.5))

    def test_nonempty_buckets_spans(self):
        h = Histogram([1.0, 2.0])
        h.observe(0.1)
        h.observe(1.5)
        assert h.nonempty_buckets() == [
            (-math.inf, 1.0, 1),
            (1.0, 2.0, 1),
        ]

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            Histogram([1.0])
        with pytest.raises(ValueError):
            Histogram([2.0, 1.0])

    def test_observe_many_equals_observe_loop(self):
        """The bulk fill leaves exactly what one observe() per value
        leaves — counts, extremes and the left-to-right running total
        (values chosen so a pairwise or compensated sum would differ)."""
        values = [0.1, 1e16, 0.3, -1e16, 2.5, 7.0, 1.0, 0.05]
        one, bulk = Histogram([1.0, 2.0, 4.0]), Histogram([1.0, 2.0, 4.0])
        one.observe(3.0)
        bulk.observe(3.0)
        for v in values:
            one.observe(v)
        bulk.observe_many(values)
        bulk.observe_many([])
        assert bulk.snapshot() == one.snapshot()
        assert bulk.total == one.total


class TestRegistry:
    def test_get_or_create_and_type_conflict(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        assert reg.counter("x") is c
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_names_sorted_and_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ["a", "b"]
        snap = reg.snapshot()
        assert snap["a"]["type"] == "gauge" and snap["b"]["type"] == "counter"
        assert "a" in reg and reg["a"] is reg.gauge("a")


class TestSimMetrics:
    @pytest.fixture(scope="class")
    def run(self):
        metrics = SimMetrics()
        report = bitw_simulation(workload=MiB // 4, probe=metrics)
        return metrics, report

    def test_flow_conservation(self, run):
        metrics, report = run
        reg = metrics.registry
        assert reg["source.bytes"].value == pytest.approx(report.input_bytes)
        assert reg["sink.bytes"].value == pytest.approx(report.output_bytes)

    def test_stage_jobs_match_report(self, run):
        metrics, report = run
        for s in report.stages:
            assert metrics.registry[f"stage.{s.name}.jobs"].value == s.jobs

    def test_queue_high_water_dominates_report(self, run):
        """The gauge sees every instantaneous level, including
        zero-duration transients that StepSeries collapses (same-time
        records are last-write-wins), so its high-water mark is at
        least the report's."""
        metrics, report = run
        for s in report.stages:
            gauge = metrics.registry[f"queue.q->{s.name}.bytes"]
            assert gauge.max >= s.max_queue_bytes * (1 - 1e-9)
            assert gauge.value == 0.0  # drained at end of run

    def test_latency_histogram_matches_delays(self, run):
        metrics, report = run
        h = metrics.registry["job.latency_s"]
        assert h.count == report.delays_first.count
        assert h.vmax == pytest.approx(report.delays_first.max)

    def test_stage_service_summary(self, run):
        """The report-derived summaries equal the probe's histograms."""
        metrics, report = run
        summary = report_summaries(report)
        assert set(summary["stage_service"]) == {s.name for s in report.stages}
        for name, row in summary["stage_service"].items():
            h = metrics.registry[f"stage.{name}.service_s"]
            assert row == {
                "count": h.count,
                "mean_s": h.mean,
                "max_s": h.vmax,
                "p99_s": h.quantile(0.99),
            }
            assert 0 < row["mean_s"] <= row["max_s"]
        latency = metrics.registry["job.latency_s"].snapshot()
        assert summary["job_latency"] == {
            k: latency[k] for k in ("count", "mean", "max", "p99")
        }

    def test_terminal_summary_renders(self, run):
        metrics, _ = run
        text = metrics.summary()
        assert "== metrics ==" in text
        assert "job.latency_s" in text
        assert "#" in text  # histogram bars
