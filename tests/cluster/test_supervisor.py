"""Shard supervision: jittered backoff units + the real heal loop.

The integration test is the tentpole scenario end to end: SIGKILL a
shard under a supervised cluster and watch the supervisor detect it,
restart it, rejoin it into the ring (epoch bump), and leave the cluster
able to serve the dead shard's keys again — then drain clean.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.apps.blast import blast_pipeline
from repro.cluster import ClusterConfig, ClusterThread
from repro.cluster.supervisor import ShardSupervisor
from repro.serve.client import ServeClient
from repro.serve.engine import BACKOFF_BASE_S, BACKOFF_CAP_S
from repro.streaming import pipeline_to_dict


@pytest.fixture(scope="module")
def model():
    return pipeline_to_dict(blast_pipeline())


class TestBackoff:
    def _supervisor(self, seed: int) -> ShardSupervisor:
        class _NoRouter:  # backoff math needs no router at all
            pass

        return ShardSupervisor([], _NoRouter(), rng=random.Random(seed))

    def test_full_jitter_spans_the_exponential_ceiling(self):
        assert (BACKOFF_BASE_S, BACKOFF_CAP_S) == (0.25, 8.0)
        sup = self._supervisor(1)
        for attempt in range(12):
            ceiling = min(8.0, 0.25 * 2.0 ** attempt)
            draws = [sup.backoff_delay(attempt) for _ in range(200)]
            assert all(0.0 <= d <= ceiling for d in draws)
        # full jitter, not equal jitter: draws reach below half-ceiling
        low = [sup.backoff_delay(4) for _ in range(200)]
        assert min(low) < 0.5 * min(8.0, 0.25 * 2.0 ** 4)

    def test_seeded_rng_makes_the_schedule_deterministic(self):
        a = self._supervisor(42)
        b = self._supervisor(42)
        assert [a.backoff_delay(k) for k in range(8)] == [
            b.backoff_delay(k) for k in range(8)
        ]
        c = self._supervisor(43)
        assert [a.backoff_delay(k) for k in range(8)] != [
            c.backoff_delay(k) for k in range(8)
        ]


class TestSelfHealing:
    @pytest.fixture()
    def cluster(self, tmp_path):
        config = ClusterConfig(
            shards=2,
            workers_per_shard=1,
            calibrate=0,
            cache_dir=str(tmp_path / "cache"),
            heartbeat_interval_s=0.3,
            probe_timeout_s=0.5,
            supervisor_seed=7,
        )
        with ClusterThread(config) as handle:
            yield handle

    def test_killed_shard_is_restarted_and_rejoins_the_ring(self, cluster, model):
        router = cluster.router
        epoch0 = router.ring_epoch
        victim = cluster.shards[0]
        old_port = victim.port
        victim.kill()

        # detection: the heartbeat marks it down (epoch bump #1)
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline and victim.name not in router.down:
            time.sleep(0.05)
        assert victim.name in router.down

        # recovery: restart + rejoin (epoch bump #2), bounded wall clock
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and router.down:
            time.sleep(0.05)
        assert not router.down, "supervisor never rejoined the killed shard"
        assert router.ring_epoch >= epoch0 + 2
        assert victim.alive
        assert victim.port != old_port  # a fresh process on a fresh port

        with ServeClient(cluster.host, cluster.port, connect_retries=4) as client:
            stats = client.stats()["result"]
            assert stats["supervisor"]["restarts_total"] >= 1
            assert stats["supervisor"]["shards"][victim.name]["state"] == "up"
            assert stats["ring_epoch"] == router.ring_epoch
            # the healed cluster serves with no shard marked down
            response = client.analyze(model, {"scale:network": 1.5})
            assert response["ok"], response

        summary = cluster.stop()
        assert summary["clean"] is True
        assert summary["restarts"][victim.name] >= 1
