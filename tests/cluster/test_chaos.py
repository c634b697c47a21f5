"""Chaos machinery: schedule determinism, partitions, death-during-drain.

The full kill-under-load harness (``run_chaos``) gets a small smoke
here; the asserted-floors version lives in ``benchmarks/bench_chaos.py``
and runs in CI.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.apps.blast import blast_pipeline
from repro.cluster import ClusterConfig, ClusterThread, FaultEvent, chaos_schedule, run_chaos
from repro.serve.client import ServeClient
from repro.streaming import pipeline_to_dict


@pytest.fixture(scope="module")
def model():
    return pipeline_to_dict(blast_pipeline())


class TestSchedule:
    def test_same_seed_same_schedule(self):
        kwargs = dict(
            duration_s=10.0,
            shard_names=["shard-0", "shard-1", "shard-2"],
            kills=1,
            partitions=1,
        )
        assert chaos_schedule(seed=7, **kwargs) == chaos_schedule(seed=7, **kwargs)
        assert chaos_schedule(seed=7, **kwargs) != chaos_schedule(seed=8, **kwargs)

    def test_kills_land_early_enough_to_observe_recovery(self):
        events = chaos_schedule(
            seed=3, duration_s=10.0, shard_names=["a", "b"], kills=2
        )
        assert len(events) == 2
        assert {e.target for e in events} == {"a", "b"}
        assert all(e.at_s <= 5.0 for e in events)

    def test_partitions_heal_within_the_window(self):
        events = chaos_schedule(
            seed=5, duration_s=10.0, shard_names=["a"], kills=0, partitions=1
        )
        start = next(e for e in events if e.kind == "partition")
        heal = next(e for e in events if e.kind == "heal")
        assert start.at_s < heal.at_s <= 8.5

    def test_overcommitted_schedule_is_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            chaos_schedule(seed=1, duration_s=5.0, shard_names=["a"], kills=2)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(at_s=1.0, kind="meteor", target="a")
        with pytest.raises(ValueError, match=">= 0"):
            FaultEvent(at_s=-1.0, kind="kill_shard", target="a")


class TestPartition:
    @pytest.fixture()
    def cluster(self, tmp_path):
        config = ClusterConfig(
            shards=2,
            workers_per_shard=1,
            calibrate=0,
            cache_dir=str(tmp_path / "cache"),
            heartbeat_interval_s=0.3,
            probe_timeout_s=0.5,
            supervisor_seed=11,
        )
        with ClusterThread(config) as handle:
            yield handle

    def test_partition_quarantines_then_heals_without_a_restart(self, cluster):
        router = cluster.router
        victim = cluster.shards[0]
        epoch0 = router.ring_epoch
        router.links[victim.name].partitioned = True

        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline and victim.name not in router.down:
            time.sleep(0.05)
        assert victim.name in router.down
        assert cluster.supervisor.states[victim.name] == "quarantined"
        assert victim.alive  # quarantined, not killed: the process is healthy

        router.links[victim.name].partitioned = False
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline and router.down:
            time.sleep(0.05)
        assert not router.down
        assert router.ring_epoch >= epoch0 + 2
        # a partition is healed by rejoining, never by restarting
        assert cluster.supervisor.restarts[victim.name] == 0

        summary = cluster.stop()
        assert summary["clean"] is True


class TestDrainDuringDeath:
    def test_drain_is_clean_when_a_shard_dies_with_requests_in_flight(
        self, tmp_path, model
    ):
        config = ClusterConfig(
            shards=2,
            workers_per_shard=1,
            calibrate=0,
            cache_dir=str(tmp_path / "cache"),
            supervise=False,  # the victim must STAY dead through the drain
        )
        responses: list[dict] = []
        # the kill lands while the pump is mid-stream, however fast the
        # cluster answers: after the pump's second answer, with ten to go
        second_answer = threading.Event()

        with ClusterThread(config) as cluster:
            victim = cluster.shards[0]

            def pump() -> None:
                with ServeClient(
                    cluster.host, cluster.port, connect_retries=4
                ) as client:
                    for i in range(12):
                        responses.append(
                            client.analyze(model, {"scale:network": 1.0 + i * 0.25})
                        )
                        if len(responses) == 2:
                            second_answer.set()

            thread = threading.Thread(target=pump)
            thread.start()
            assert second_answer.wait(60.0)
            victim.kill()
            thread.join(60.0)
            assert not thread.is_alive()
            summary = cluster.stop()

        # every in-flight/after-death request failed over and succeeded
        assert len(responses) == 12
        assert all(r["ok"] for r in responses), responses
        survivors = {r["result"]["shard"] for r in responses[-4:]}
        assert victim.name not in survivors
        # and SIGTERM drain still exits clean: the dead shard owed
        # nothing (the router failed its keys over), the survivor
        # drained losslessly
        assert summary["clean"] is True
        assert summary["shard_exit_codes"][cluster.shards[1].name] == 0


class TestRunChaosSmoke:
    def test_seeded_kill_under_load_recovers_and_loses_nothing(self, tmp_path, model):
        config = ClusterConfig(
            shards=2,
            workers_per_shard=1,
            calibrate=0,
            cache_dir=str(tmp_path / "cache"),
            heartbeat_interval_s=0.3,
            probe_timeout_s=0.5,
            supervisor_seed=13,
            tenants=[("acme", 40.0, 20.0, None)],
        )
        report = run_chaos(
            config,
            [FaultEvent(at_s=1.5, kind="kill_shard", target="shard-1")],
            model=model,
            duration_s=5.0,
            rate_rps=12.0,
            tenants=[("acme", 1.0)],
            point_pool=[{"scale:network": s} for s in (1.0, 1.5, 2.0, 2.5)],
            seed=21,
            connections=4,
        )
        doc = report.to_dict()
        assert report.replay.offered == 60
        assert report.accepted_then_lost == 0
        assert report.recovered, doc
        # down (+1) and rejoin (+1) both bumped the epoch
        assert report.ring_epoch_final >= report.ring_epoch_initial + 2
        assert report.recovery_s["shard-1"] is not None
        assert report.supervisor["restarts_total"] >= 1
        assert report.drain["clean"] is True
        assert doc["served_fraction"] == pytest.approx(
            report.replay.ok / report.replay.offered
        )
