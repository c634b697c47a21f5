"""The report's lazy fields: same values as an eager computation, and
never computed by a caller that does not read them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.blast import blast_pipeline
from repro.apps.bump_in_the_wire import bitw_pipeline
from repro.nc import Curve, UnboundedCurveError, output_arrival_curve
from repro.nc.concatenation import Tandem
from repro.streaming import Pipeline, Source, analyze, build_model, pipeline_to_dict
from repro.streaming.analysis import NodeReport, _per_node_backlogs
from repro.sweep import SweepPoint, SweepSpec, evaluate_point
from repro.units import MiB

from .test_properties import stages_strategy

#: source rate scale and stage upgrade that make BLAST stable
STABLE_BLAST = {"source_rate_scale": 0.5, "scale:ungapped_ext": 2.25}


def stable_blast() -> Pipeline:
    spec = SweepSpec.from_pipeline(blast_pipeline(), ())
    return spec.apply_point(SweepPoint(0, STABLE_BLAST)).pipeline


def eager_nodes(pipe, packetized, workload):
    """The per-node rows as :func:`analyze` built them before they were lazy."""
    model = build_model(pipe, packetized=packetized)
    return tuple(
        NodeReport(
            name=s.name,
            kind=s.kind,
            rate_min=s.rate_min,
            rate_avg=s.rate_avg,
            rate_max=s.rate_max,
            job_bytes=s.job_bytes,
            job_ratio=s.job_ratio,
            collection_time=term.collection_time,
            dispatch_latency=term.dispatch_latency,
            backlog_contribution=b,
        )
        for s, term, b in zip(model.normalized, model.latency_terms, _per_node_backlogs(model))
    )


def eager_alpha_star(pipe, packetized, workload):
    model = build_model(pipe, packetized=packetized)
    alpha, beta, gamma = model.alpha, model.beta_system, model.gamma_system
    try:
        return output_arrival_curve(alpha, beta, gamma)
    except UnboundedCurveError:
        if workload is None:
            return None
        return output_arrival_curve(alpha.minimum(Curve.constant(workload)), beta, gamma)


def assert_same_report_laziness(pipe, packetized, workload):
    rep = analyze(pipe, packetized=packetized, workload=workload)
    assert "nodes" not in rep.__dict__ and "alpha_star" not in rep.__dict__
    assert rep.nodes == eager_nodes(pipe, packetized, workload)
    want = eager_alpha_star(pipe, packetized, workload)
    got = rep.alpha_star
    if want is None:
        assert got is None
    else:
        for a, b in ((got.bx, want.bx), (got.by, want.by), (got.sy, want.sy), (got.sl, want.sl)):
            assert np.array_equal(a, b)
    assert rep.nodes is rep.nodes and rep.alpha_star is got  # computed once


@pytest.mark.parametrize("workload", [None, 256 * MiB])
@pytest.mark.parametrize("packetized", [False, True])
@pytest.mark.parametrize("make", [blast_pipeline, bitw_pipeline, stable_blast])
def test_paper_apps_match_eager_values(make, packetized, workload):
    assert_same_report_laziness(make(), packetized, workload)


@settings(max_examples=40, deadline=None)
@given(
    stages_strategy(4),
    st.sampled_from([0.25, 0.9, 1.0, 1.5, 4.0]),
    st.booleans(),
    st.sampled_from([None, 1e4]),
)
def test_random_pipelines_match_eager_values(stages, load, packetized, workload):
    probe = Pipeline("p", Source(rate=1.0, burst=4.0, packet_bytes=4.0), stages)
    rate = load * build_model(probe).bottleneck_rate  # < 1 stable, > 1 not
    pipe = Pipeline("p", Source(rate=rate, burst=4.0, packet_bytes=4.0), stages)
    assert_same_report_laziness(pipe, packetized, workload)


def test_a_sweep_point_computes_neither(monkeypatch):
    import repro.nc.concatenation as concatenation
    import repro.streaming.analysis as analysis

    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        Tandem, "per_node_backlog_bounds",
        spy("per_node_backlog_bounds", Tandem.per_node_backlog_bounds),
    )
    for module in (analysis, concatenation):
        monkeypatch.setattr(
            module, "output_arrival_curve",
            spy("output_arrival_curve", module.output_arrival_curve),
        )
    options = {"simulate": False, "packetized": True, "workload": None, "base_seed": 42}
    out = evaluate_point(pipeline_to_dict(blast_pipeline()), STABLE_BLAST, options, 1)
    assert "error" not in out and out["nc"]["stable"] is True
    assert calls == []
    # the spies do see the fields once something reads them
    rep = analyze(stable_blast(), packetized=True)
    assert rep.stable and rep.nodes and rep.alpha_star is not None
    assert calls.count("per_node_backlog_bounds") == 1
    assert "output_arrival_curve" in calls
