"""Unit tests for the conformance checks and their reporting."""

import math

import pytest

from repro.streaming import Pipeline, Source, Stage, simulate
from repro.telemetry import (
    ServiceLog,
    check_delay,
    check_queues,
    check_stage_service,
    evaluate_conformance,
    run_conformance,
    valid_bounds,
)
from repro.telemetry.conformance import CheckResult, ConformanceReport
from repro.units import KiB, MiB


def _stable_pipeline() -> Pipeline:
    return Pipeline(
        "unit",
        Source(rate=40 * MiB, burst=512 * KiB, packet_bytes=64 * KiB),
        [
            Stage("pack", avg_rate=300 * MiB, min_rate=250 * MiB,
                  max_rate=350 * MiB, latency=2e-4, job_bytes=256 * KiB),
            Stage("ship", avg_rate=90 * MiB, min_rate=80 * MiB,
                  max_rate=100 * MiB, latency=1e-4, job_bytes=64 * KiB),
        ],
    )


@pytest.fixture(scope="module")
def checked():
    pipe = _stable_pipeline()
    log = ServiceLog()
    sim = simulate(pipe, workload=8 * MiB, seed=5, probe=log)
    delay, backlog, alpha, est = valid_bounds(pipe)
    return pipe, sim, log, delay, backlog, alpha, est


class TestValidBounds:
    def test_stable_pipeline_gets_theorem_bounds(self, checked):
        *_, delay, backlog, alpha, est = checked
        assert not est
        assert 0 < delay < math.inf and 0 < backlog < math.inf
        assert alpha(1.0) > 0

    def test_unstable_pipeline_flagged_as_estimate(self):
        from repro.apps.blast import blast_pipeline

        delay, backlog, _alpha, est = valid_bounds(blast_pipeline())
        assert est
        # the paper's closed-form transient estimates
        assert delay == pytest.approx(46.9e-3, rel=0.01)
        assert backlog == pytest.approx(20.6 * MiB, rel=0.01)


class TestChecksPass:
    def test_conformant_run_passes_every_check(self, checked):
        pipe, sim, log, delay, backlog, alpha, est = checked
        report = evaluate_conformance(
            pipe.name, sim, delay=delay, backlog=backlog, alpha=alpha,
            l_max=pipe.source.packet_bytes, estimates=est, spans=log.spans,
            service_bounds={"pack": (0.0, 1.0, 1.0), "ship": (0.0, 1.0, 1.0)},
        )
        assert report.ok and not report.violations
        names = {c.name for c in report.checks}
        assert {"delay.end_to_end", "arrival.source", "backlog.system",
                "queue.pack", "queue.ship", "service.pack"} <= names
        assert "PASS" in report.summary()

    def test_margins_positive_when_conformant(self, checked):
        pipe, sim, log, delay, backlog, alpha, est = checked
        report = evaluate_conformance(
            pipe.name, sim, delay=delay, backlog=backlog, alpha=alpha,
            l_max=pipe.source.packet_bytes,
        )
        assert report.check("delay.end_to_end").margin > 0
        assert report.check("backlog.system").margin > 0


class TestViolationsLocated:
    """A failure message must name the offending stage and the time."""

    def test_delay_violation_names_time(self, checked):
        _pipe, sim, *_ = checked
        result = check_delay(sim, bound=1e-9)
        assert not result.ok and result.n_observations > 0
        msg = result.violations[0].message
        assert "delay.end_to_end" in msg
        assert "end-to-end" in msg and "t=" in msg

    def test_queue_violation_names_stage(self, checked):
        _pipe, sim, *_ = checked
        results = check_queues(sim, bound=1.0)
        failing = [r for r in results if not r.ok]
        assert failing
        for r in failing:
            assert r.violations[0].stage == r.stage
            assert r.stage in r.violations[0].message

    def test_service_violation_names_stage_and_time(self):
        spans = [("slow", 0.0, 5.0, 1.0, False)]
        results = check_stage_service(spans, {"slow": (0.0, 1.0, 0.0)})
        assert len(results) == 1 and not results[0].ok
        msg = results[0].violations[0].message
        assert "service.slow" in msg and "'slow'" in msg and "t=5" in msg

    def test_failing_report_summary_and_exitworthy(self, checked):
        pipe, sim, _log, _delay, _backlog, alpha, _est = checked
        report = evaluate_conformance(
            pipe.name, sim, delay=1e-9, backlog=1.0, alpha=alpha,
            l_max=pipe.source.packet_bytes,
        )
        assert not report.ok
        text = report.summary()
        assert "verdict: FAIL" in text and "VIOLATION" in text

    def test_summary_columns_line_up_whatever_the_counts(self):
        checks = (
            CheckResult("delay.end_to_end", "system", 7, 1e-3, 2e-3),
            CheckResult("arrival.source", "source", 134_209_536, 3.0 * MiB, 4.0 * MiB),
            CheckResult("backlog.system", "system", 512, 1.0 * MiB, 4.0 * MiB),
        )
        lines = ConformanceReport("unit", False, checks).summary().splitlines()
        header, rows = lines[2], lines[3:6]
        # each right-aligned column ends where its header does, and the
        # verdicts start under theirs
        ends = [header.index(name) + len(name) for name in ("n", "worst", "bound", "margin")]
        for row in rows:
            assert [row[end - 1] != " " and row[end] == " " for end in ends] == [True] * 4, row
            assert row.rindex("  ") == header.index("verdict") - 2, row
        assert "134209536" in rows[1]
        assert lines[6:] == ["verdict: PASS"]

    def test_to_dict_counts_violations(self, checked):
        pipe, sim, _log, _delay, _backlog, alpha, _est = checked
        d = evaluate_conformance(
            pipe.name, sim, delay=1e-9, backlog=1.0, alpha=alpha,
            l_max=pipe.source.packet_bytes,
        ).to_dict()
        assert d["ok"] is False and d["n_violations"] > 0
        assert d["checks"]["delay.end_to_end"]["ok"] is False


class TestRunConformance:
    def test_end_to_end_driver(self):
        report = run_conformance(_stable_pipeline(), workload=4 * MiB, seed=3)
        assert report.ok
        assert not report.bounds_are_estimates
        # service checks made it in via the implicit ServiceLog
        assert any(c.name.startswith("service.") for c in report.checks)

    def test_extra_probe_rides_along(self):
        from repro.telemetry import SimMetrics

        metrics = SimMetrics()
        report = run_conformance(
            _stable_pipeline(), workload=2 * MiB, seed=3, probe=metrics
        )
        assert report.ok
        assert metrics.registry["sink.bytes"].value > 0
