"""The pipeline's carried normalized view: after any chain of copies it
equals a normalization from scratch, and a copy recomputes only what its
change moved."""

import pickle
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.blast import blast_pipeline
from repro.streaming import (
    Pipeline,
    Source,
    VolumeRatio,
    normalize_stages,
    upgrade_stage,
)
from repro.streaming import pipeline as pipeline_mod

from .test_properties import stages_strategy

SCENARIOS = (None, "worst", "avg", "best")
_factors = st.floats(min_value=0.25, max_value=4.0)
_ratios = st.floats(min_value=0.1, max_value=10.0)


def assert_views_fresh(pipe):
    for scenario in SCENARIOS:
        assert pipe.normalized(scenario) == normalize_stages(pipe.stages, scenario)


@settings(max_examples=80, deadline=None)
@given(stages_strategy(), st.data())
def test_carried_view_equals_a_fresh_normalization(stages, data):
    pipe = Pipeline("p", Source(rate=100.0, burst=8.0), stages)
    for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
        op = data.draw(st.sampled_from(["read", "upgrade", "stage", "ratio", "source"]))
        name = data.draw(st.sampled_from(pipe.stage_names()))
        s = pipe.stages[pipe.stage_index(name)]
        if op == "read":  # computes a view that later copies carry
            pipe.normalized(data.draw(st.sampled_from(SCENARIOS)))
        elif op == "upgrade":
            pipe = upgrade_stage(pipe, name, data.draw(_factors))
        elif op == "stage":  # same volume ratio, new job shape and latency
            pipe = pipe.with_stage(name, replace(
                s,
                job_bytes=s.job_bytes * data.draw(_factors),
                emit_bytes=data.draw(st.none() | st.floats(min_value=1.0, max_value=64.0)),
                latency=data.draw(st.floats(min_value=0.0, max_value=0.1)),
            ))
        elif op == "ratio":  # moves the factor of every downstream stage
            a, b, c = sorted(data.draw(st.tuples(_ratios, _ratios, _ratios)))
            pipe = pipe.with_stage(name, replace(s, volume_ratio=VolumeRatio(a, b, c)))
        else:
            pipe = pipe.with_source(Source(
                rate=data.draw(_factors) * 100.0, burst=data.draw(_factors)
            ))
    assert_views_fresh(pipe)


class _CountingNormalization:
    def __init__(self, monkeypatch):
        self.calls = 0
        real = pipeline_mod.normalize_stages

        def counted(*args):
            self.calls += 1
            return real(*args)

        monkeypatch.setattr(pipeline_mod, "normalize_stages", counted)


def test_copies_recompute_only_what_moved(monkeypatch):
    base = blast_pipeline()
    base.normalized()
    base.normalized("worst")
    count = _CountingNormalization(monkeypatch)
    upgraded = upgrade_stage(base, "ungapped_ext", 2.0).with_source(Source(rate=1e8))
    assert_views_fresh(upgraded)
    # the two views the base had were carried; the other two were new
    assert count.calls == 2
    s = upgraded.stages[0]
    moved = upgraded.with_stage(s.name, replace(s, volume_ratio=VolumeRatio.fixed(0.5)))
    count.calls = 0
    assert_views_fresh(moved)
    assert count.calls == len(SCENARIOS)  # a new ratio drops every view


def test_pickled_pipeline_keeps_its_view():
    base = blast_pipeline()
    view = base.normalized()
    copy = pickle.loads(pickle.dumps(base))
    assert copy == base and copy.normalized() == view
    assert_views_fresh(upgrade_stage(copy, "network", 3.0))
