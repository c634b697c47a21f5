"""Differential tests: the max-plus recurrence engine against the event loop.

``PipelineSimulation.run`` picks the recurrence by itself for unbounded,
deterministically paced, unprobed runs without a time cut-off.  Attaching
a no-op :class:`SimProbe` forces the event loop, which is the oracle here:
every report field must be ``==``-equal, bit for bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import PipelineSimulation, SimStage, constant, exponential, uniform
from repro.des import pipeline_sim
from repro.des.recurrence import emit_chunk, simulate_recurrence
from repro.scenarios import catalog
from repro.scenarios.runner import scenario_payload
from repro.sweep import evaluate_point, point_seed
from repro.telemetry import SimMetrics, SimProbe, report_summaries
from repro.units import KiB, MiB
from tests.des.test_determinism import _report_fingerprint

PACKET = 64 * KiB


def _all_fields(rep):
    """Every field of a report, including the full step series and the
    per-stage service durations."""
    return (
        _report_fingerprint(rep),
        rep.arrivals.arrays()[1].tolist(),
        rep.departures.arrays()[0].tolist(),
        rep.backlog.arrays()[0].tolist(),
        rep.backlog.arrays()[1].tolist(),
        rep.delays_first.as_array().tolist(),
        rep.delays_last.as_array().tolist(),
        [(s.utilization, s.service_times.tolist()) for s in rep.stages],
    )


def _with_probe(sim, probe):
    return PipelineSimulation(
        sim.stages,
        workload_bytes=sim.workload,
        source_rate=sim.source_rate,
        source_packet=sim.source_packet,
        source_burst=sim.source_burst,
        seed=sim.seed,
        probe=probe,
    )


def _service(draw, continuous):
    base = draw(st.sampled_from([1e-4, 2.5e-4, 5e-4, PACKET / 2e8]))
    if continuous:
        return uniform(base * draw(st.floats(0.3, 0.9)), base * draw(st.floats(1.1, 2.0)))
    return draw(st.sampled_from([constant(base), uniform(base, base)]))


@st.composite
def pipelines(draw, continuous=None):
    """Random unbounded pipelines: 1-6 stages, consume/emit ratios that
    divide the packet and ones that do not, odd bursts, workloads off
    the packet grid, startup latencies, constant and uniform service."""
    stages = []
    for i in range(draw(st.integers(1, 6))):
        consume = PACKET * draw(st.sampled_from([
            0.5, 1.0, 2.0, 3.0, 8.0, 1.7, 2.0 / 3.0, draw(st.floats(0.2, 6.0)),
        ]))
        emit = draw(st.sampled_from([
            None, consume / 2, consume / 3, 2 * consume, consume * draw(st.floats(0.1, 3.0)),
        ]))
        smooth = continuous if continuous is not None else draw(st.booleans())
        startup = draw(st.sampled_from([0.0, 1e-3, draw(st.floats(0.0, 2e-3))]))
        stages.append(SimStage(f"s{i}", consume, _service(draw, smooth), emit,
                               startup_latency=startup))
    workload = PACKET * draw(st.sampled_from([
        16.0, 24.0, 40.5, draw(st.floats(1.0, 64.0)),
    ]))
    rate = draw(st.sampled_from([PACKET / 1e-4, PACKET / 2.5e-4, draw(st.floats(5e7, 1e9))]))
    burst = PACKET * draw(st.sampled_from([0.0, 1.0, 3.5, 10.2, draw(st.floats(0.0, 12.0))]))
    return PipelineSimulation(
        stages,
        workload_bytes=workload,
        source_rate=rate,
        source_packet=PACKET,
        source_burst=burst,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(pipelines())
    def test_run_equals_event_loop(self, sim):
        auto = sim.run()
        events = _with_probe(sim, SimProbe()).run()
        assert _report_fingerprint(auto) == _report_fingerprint(events)
        assert _all_fields(auto) == _all_fields(events)
        recurrence = simulate_recurrence(sim)
        if recurrence is not None:
            assert _all_fields(recurrence) == _all_fields(events)

    @settings(max_examples=60, deadline=None)
    @given(pipelines(continuous=True))
    def test_continuous_service_never_falls_back(self, sim):
        """Without deterministic service no two events share an instant
        after t=0, so the recurrence always answers."""
        recurrence = simulate_recurrence(sim)
        assert recurrence is not None
        assert _all_fields(recurrence) == _all_fields(_with_probe(sim, SimProbe()).run())

    @settings(max_examples=60, deadline=None)
    @given(pipelines())
    def test_summaries_equal_probe(self, sim):
        metrics = SimMetrics()
        probed = _with_probe(sim, metrics).run()
        reg = metrics.registry
        for rep in (probed, sim.run()):
            summary = report_summaries(rep)
            assert list(summary["stage_service"]) == [
                n[len("stage."):-len(".service_s")] for n in reg.names()
                if n.startswith("stage.") and n.endswith(".service_s")
            ]
            for name, row in summary["stage_service"].items():
                h = reg[f"stage.{name}.service_s"]
                assert row == {"count": h.count, "mean_s": h.mean, "max_s": h.vmax,
                               "p99_s": h.quantile(0.99)}
            snap = reg["job.latency_s"].snapshot()
            assert summary["job_latency"] == {k: snap[k] for k in ("count", "mean", "max", "p99")}


class TestOrderDependentInstants:
    """Deterministic service can make two events share an instant; where
    float rounding makes their order observable the recurrence declines
    and the event loop runs."""

    def _sim(self, stages):
        return PipelineSimulation(
            stages, workload_bytes=10_000.0, source_rate=1e6, source_packet=1000.0, seed=0
        )

    @pytest.mark.parametrize("stages", [
        # a job request coincides with upstream chunks of 1000/3 bytes
        [SimStage("a", 1000.0, constant(1e-3), 1000.0 / 3),
         SimStage("b", 1000.0, constant(3e-3))],
        # a source packet and a departure change the backlog at one instant
        [SimStage("a", 1000.0, constant(2e-3), 1000.0 / 3)],
    ], ids=["simultaneous-arrivals", "source-and-sink"])
    def test_falls_back_to_event_loop(self, stages):
        sim = self._sim(stages)
        assert simulate_recurrence(sim) is None
        assert _all_fields(sim.run()) == _all_fields(_with_probe(sim, SimProbe()).run())


class TestEngineSelection:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def spy(sim):
            seen.append(sim)
            return simulate_recurrence(sim)

        monkeypatch.setattr(pipeline_sim, "simulate_recurrence", spy)
        return seen

    def _sim(self, stages=None, **overrides):
        kwargs = dict(workload_bytes=MiB, source_rate=200 * MiB, source_packet=PACKET, seed=3)
        kwargs.update(overrides)
        return PipelineSimulation(stages or [
            SimStage("a", 2 * PACKET, uniform(2e-4, 4e-4)),
            SimStage("b", PACKET, uniform(1e-4, 3e-4)),
        ], **kwargs)

    def test_unbounded_unprobed_run_uses_recurrence(self, calls):
        self._sim().run()
        assert len(calls) == 1

    @pytest.mark.parametrize("overrides", [
        {"probe": SimProbe()},
        {"interarrival": exponential(1e-4)},
        {"max_sim_time": 10.0},
        {"stages": [SimStage("a", PACKET, uniform(1e-4, 2e-4), queue_bytes=4 * PACKET)]},
    ], ids=["probe", "interarrival", "max_sim_time", "bounded-queue"])
    def test_event_loop_only(self, calls, overrides):
        rep = self._sim(**overrides).run()
        assert calls == []
        assert rep.stages[0].jobs > 0


class TestPhantomJobs:
    """A job the whole-fragment tolerance made a few nanobytes larger
    than its consume used to emit that excess as a chunk of its own,
    which downstream served as an extra, full-cost job."""

    def _sim(self, probe=None):
        return PipelineSimulation(
            [SimStage("s0", 512 * KiB, uniform(1.0e-3, 1.7e-3)),
             SimStage("s1", 512 * KiB, uniform(0.7e-3, 1.1e-3))],
            workload_bytes=8 * MiB,
            source_rate=230e6,
            source_packet=PACKET,
            source_burst=668635.6866701641,
            seed=0,
            probe=probe,
        )

    @pytest.mark.parametrize("probe", [None, SimProbe()], ids=["recurrence", "events"])
    def test_no_extra_job_downstream(self, probe):
        rep = self._sim(probe).run()
        assert [s.jobs for s in rep.stages] == [16, 16]
        assert rep.makespan == pytest.approx(35.46e-3, abs=0.01e-3)
        assert rep.conservation_ok()

    def test_residue_folds_into_last_chunk(self):
        emit = 512 * KiB
        assert emit_chunk(emit, emit + 5e-10) == emit + 5e-10
        assert emit_chunk(emit, 2 * emit) == emit
        assert emit_chunk(emit, 0.5 * emit) == 0.5 * emit
        assert emit_chunk(emit, emit * (1 + 1e-11)) == emit


def test_catalog_payloads_match_under_both_engines(monkeypatch):
    """Every simulated built-in scenario's sweep payload (the cached view:
    ``des``, ``metrics``, ``conformance``) is the same whether the
    recurrence answers or declines every run."""

    def payloads():
        out = {}
        for spec in catalog():
            if spec.simulate:
                model, params, options = scenario_payload(spec)
                result = evaluate_point(model, params, options, point_seed(spec.seed, params))
                result.pop("elapsed")
                out[spec.name] = result
        return out

    auto = payloads()
    monkeypatch.setattr(pipeline_sim, "simulate_recurrence", lambda sim: None)
    events = payloads()
    assert auto == events
    assert all(r["des"] and r["metrics"]["stage_service"] for r in auto.values())
