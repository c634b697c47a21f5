"""Tests for Pipeline, job-ratio latency, SystemModel and analyze()."""

import math

import pytest

from repro.nc import UnboundedCurveError
from repro.streaming import (
    Pipeline,
    Source,
    Stage,
    aggregation_latency,
    analyze,
    build_model,
    normalize_stages,
    total_latency,
    total_latency_breakdown,
)
from repro.units import KiB, MiB


def stable_pipeline() -> Pipeline:
    return Pipeline(
        "stable",
        Source(rate=100 * MiB, burst=1 * MiB, packet_bytes=64 * KiB),
        [
            Stage("a", avg_rate=400 * MiB, min_rate=350 * MiB, max_rate=450 * MiB,
                  latency=1e-3, job_bytes=1 * MiB),
            Stage.link("net", 120 * MiB, latency=0.5e-3, mtu=64 * KiB),
            Stage("b", avg_rate=200 * MiB, min_rate=150 * MiB, max_rate=260 * MiB,
                  latency=2e-3, job_bytes=8 * MiB),
        ],
    )


def unstable_pipeline() -> Pipeline:
    return stable_pipeline().with_source(Source(rate=500 * MiB, burst=1 * MiB))


class TestPipeline:
    def test_structure(self):
        p = stable_pipeline()
        assert len(p) == 3
        assert p.stage_names() == ["a", "net", "b"]
        assert p.stage_index("net") == 1
        with pytest.raises(KeyError):
            p.stage_index("nope")

    def test_subchain(self):
        p = stable_pipeline().subchain("net", "b")
        assert p.stage_names() == ["net", "b"]
        with pytest.raises(ValueError):
            stable_pipeline().subchain("b", "a")

    def test_with_stage(self):
        p = stable_pipeline()
        p2 = p.with_stage("net", Stage.link("net", 500 * MiB))
        assert p2.stages[1].avg_rate == 500 * MiB
        assert p.stages[1].avg_rate == 120 * MiB  # original untouched

    def test_validation(self):
        src = Source(rate=1.0)
        with pytest.raises(ValueError):
            Pipeline("", src, [Stage("a", avg_rate=1.0)])
        with pytest.raises(ValueError):
            Pipeline("x", src, [])
        with pytest.raises(ValueError):
            Pipeline("x", src, [Stage("a", avg_rate=1.0), Stage("a", avg_rate=1.0)])

    def test_arrival_curve(self):
        src = Source(rate=10.0, burst=3.0)
        a = src.arrival_curve()
        assert a(0.0) == 0.0
        assert a(1.0) == 13.0


class TestJobRatioLatency:
    def test_aggregation_latency(self):
        assert aggregation_latency(8 * MiB, 100 * MiB) == pytest.approx(0.08)
        with pytest.raises(ValueError):
            aggregation_latency(0.0, 1.0)

    def test_recursion_matches_paper_formula(self):
        ns = stable_pipeline().normalized()
        terms = total_latency_breakdown(ns, 100 * MiB, source_burst=0.0)
        # node a: collect 1 MiB at 100 MiB/s + T = 1ms
        assert terms[0].collection_time == pytest.approx((1 * MiB) / (100 * MiB))
        assert terms[0].dispatch_latency == pytest.approx(1e-3)
        # node b: collect 8 MiB at min(100, upstream mins)=100 MiB/s
        assert terms[2].collection_time == pytest.approx((8 * MiB) / (100 * MiB))
        assert terms[-1].cumulative == pytest.approx(
            sum(t.collection_time + t.dispatch_latency for t in terms)
        )

    def test_burst_covers_collection(self):
        ns = stable_pipeline().normalized()
        # a source burst bigger than every job suppresses all collection terms
        t = total_latency(ns, 100 * MiB, source_burst=16 * MiB)
        assert t == pytest.approx(1e-3 + 0.5e-3 + 2e-3)

    def test_emit_burst_propagates(self):
        # once a node emits blocks >= downstream jobs, downstream collects free
        stages = normalize_stages(
            [
                Stage("big", avg_rate=100.0, job_bytes=64.0, emit_bytes=64.0),
                Stage("small", avg_rate=100.0, job_bytes=32.0, latency=0.0),
            ]
        )
        terms = total_latency_breakdown(stages, 10.0, source_burst=0.0)
        assert terms[0].collection_time == pytest.approx(6.4)
        assert terms[1].collection_time == 0.0  # 32 <= upstream emit 64


class TestSystemModel:
    def test_bottleneck_and_rates(self):
        m = build_model(stable_pipeline())
        assert m.bottleneck_name == "net"
        assert m.bottleneck_rate == pytest.approx(120 * MiB)
        assert m.best_case_rate == pytest.approx(100 * MiB)  # source-capped
        assert m.stable

    def test_effective_burst_is_max_job(self):
        m = build_model(stable_pipeline())
        assert m.effective_burst == pytest.approx(8 * MiB)

    def test_beta_system_shape(self):
        m = build_model(stable_pipeline(), packetized=False)
        beta = m.beta_system
        assert beta.final_slope == pytest.approx(120 * MiB)
        assert beta(m.total_latency) == 0.0

    def test_packetized_beta_is_lower(self):
        mp = build_model(stable_pipeline(), packetized=True)
        mu = build_model(stable_pipeline(), packetized=False)
        ts = [0.01, 0.1, 0.5, 1.0]
        for t in ts:
            assert mp.beta_system(t) <= mu.beta_system(t) + 1e-6

    def test_beta_convolved_vs_recursion(self):
        m = build_model(stable_pipeline(), packetized=False)
        conv = m.beta_convolved
        # plain convolution has the same rate but smaller latency (no
        # collection terms)
        assert conv.final_slope == pytest.approx(120 * MiB)
        assert m.beta_system(0.2) <= conv(0.2) + 1e-6

    def test_tandem_construction(self):
        t = build_model(stable_pipeline()).tandem()
        assert len(t.nodes) == 3
        assert t.nodes[1].name == "net"


class TestAnalyze:
    def test_stable_report(self):
        rep = analyze(stable_pipeline(), packetized=False)
        assert rep.stable and not rep.transient
        assert rep.throughput_lower_bound == pytest.approx(100 * MiB)
        assert rep.throughput_upper_bound == pytest.approx(100 * MiB)
        assert math.isfinite(rep.delay_bound)
        assert math.isfinite(rep.backlog_bound)
        assert rep.alpha_star is not None
        assert len(rep.nodes) == 3
        assert "network calculus" in rep.summary()

    def test_unstable_uses_transient_estimates(self):
        rep = analyze(unstable_pipeline(), packetized=False)
        assert not rep.stable and rep.transient
        m = rep.model
        assert rep.delay_bound == pytest.approx(
            m.total_latency + m.effective_burst / m.bottleneck_rate
        )
        assert rep.backlog_bound == pytest.approx(
            m.effective_burst + 500 * MiB * m.total_latency
        )
        assert "transient estimate" in rep.summary()

    def test_unstable_alpha_star_capped_by_gamma(self):
        # here gamma's rate (capped by the network link's max) equals the
        # bottleneck rate, so the refined output envelope exists even
        # though R_alpha > R_beta
        rep = analyze(unstable_pipeline(), packetized=False, workload=None)
        assert rep.alpha_star is not None
        assert rep.alpha_star.final_slope == pytest.approx(120 * MiB)

    def test_unstable_alpha_star_requires_workload(self):
        # raise every max rate so gamma no longer caps the flow: the
        # asymptotic output envelope is unbounded without a workload cap
        p = unstable_pipeline()
        p = p.with_stage("net", Stage.link("net", 120 * MiB, mtu=64 * KiB).with_rates(
            120 * MiB, 120 * MiB, 600 * MiB))
        p = p.with_stage("b", p.stages[2].with_rates(150 * MiB, 200 * MiB, 600 * MiB))
        rep = analyze(p, packetized=False, workload=None)
        assert rep.alpha_star is None
        rep2 = analyze(p, packetized=False, workload=64 * MiB)
        assert rep2.alpha_star is not None
        assert rep2.alpha_star.final_slope == pytest.approx(0.0, abs=1e-6)

    def test_finite_workload_bounds(self):
        rep = analyze(unstable_pipeline(), packetized=False, workload=64 * MiB)
        assert math.isfinite(rep.delay_bound_workload)
        assert math.isfinite(rep.backlog_bound_workload)
        assert rep.backlog_bound_workload <= 64 * MiB

    def test_queueing_prediction_is_roofline(self):
        rep = analyze(stable_pipeline())
        assert rep.queueing_prediction == pytest.approx(100 * MiB)
        rep2 = analyze(unstable_pipeline())
        assert rep2.queueing_prediction == pytest.approx(120 * MiB)

    def test_per_node_backlogs_finite(self):
        for pipe in (stable_pipeline(), unstable_pipeline()):
            rep = analyze(pipe, packetized=False)
            assert all(math.isfinite(n.backlog_contribution) for n in rep.nodes)
            assert all(n.backlog_contribution >= 0 for n in rep.nodes)

    def test_sim_respects_bounds(self):
        pipe = stable_pipeline()
        rep = analyze(pipe, packetized=False)
        from repro.streaming import simulate

        sim = simulate(pipe, workload=128 * MiB, seed=5)
        assert sim.conservation_ok()
        vd = sim.observed_virtual_delays()
        assert vd.max <= rep.delay_bound * 1.01
        assert sim.max_backlog_bytes <= rep.backlog_bound * 1.01
        assert sim.steady_state_throughput <= rep.throughput_upper_bound * 1.05
