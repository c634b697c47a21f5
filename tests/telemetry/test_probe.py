"""Probe protocol tests: fan-out, ServiceLog, and the queue-level hook."""

from collections import defaultdict

import pytest

from repro.apps.bump_in_the_wire import bitw_pipeline
from repro.streaming import simulate
from repro.telemetry import MultiProbe, ServiceLog, SimProbe
from repro.units import MiB


class LevelRecorder(SimProbe):
    def __init__(self):
        self.levels = []

    def queue_level(self, name, t, level):
        self.levels.append((name, t, level))


class TestQueueLevelHook:
    def test_byte_queues_report_levels(self):
        probe = LevelRecorder()
        rep = simulate(bitw_pipeline(), workload=1 * MiB, seed=3, probe=probe)
        levels = defaultdict(dict)  # queue -> {t: level after the instant}
        last_t = defaultdict(float)
        for name, t, level in probe.levels:
            assert t >= last_t[name]  # time-ordered per queue
            last_t[name] = t
            levels[name][t] = level
        assert set(levels) == {f"q->{st.name}" for st in rep.stages}
        for st in rep.stages:
            trace = list(levels[f"q->{st.name}"].values())
            # the report's occupancy keeps the level each instant ends
            # at; a packet admitted and taken at one instant is no peak
            assert max(trace) == st.max_queue_bytes
            # drained; byte counts are float sums over packets, so an
            # empty queue may keep a rounding residue (~1e-8 B at 1 MiB)
            assert trace[-1] == pytest.approx(0.0, abs=1e-6)
        assert any(st.max_queue_bytes > 0 for st in rep.stages)


class TestMultiProbe:
    def test_fans_out_to_all(self):
        a, b = LevelRecorder(), LevelRecorder()
        multi = MultiProbe([a, b])
        multi.queue_level("q", 1.0, 2.0)
        assert a.levels == b.levels == [("q", 1.0, 2.0)]

    def test_default_probe_methods_are_noops(self):
        p = SimProbe()
        p.kernel_event(0.0, None)
        p.queue_level("q", 0.0, 0.0)
        p.source_packet(0.0, 1.0)
        p.job_start("s", 0.0, 1.0)
        p.job_end("s", 0.0, 1.0, 1.0, True)
        p.sink_departure(1.0, 1.0, 0.0, 0.5)
        p.run_end(1.0)


class TestServiceLog:
    def test_collects_spans(self):
        log = ServiceLog()
        log.job_start("s", 0.0, 4.0)
        log.job_end("s", 0.0, 2.0, 4.0, True)
        assert log.spans == [("s", 0.0, 2.0, 4.0, True)]
