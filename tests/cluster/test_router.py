"""Cluster integration: real shards, real router, real sockets.

Mirrors the ``tests/serve`` harness style: a module-scoped cluster
(two spawned shard processes behind a router thread) serves the happy
paths; failure injection (SIGKILL mid-life, the cluster analogue of
the sweep runner's BrokenProcessPool test) gets its own cluster so the
shared one stays healthy.  The down-set invariant is checked against
in-process fake shards, one of which hangs up mid-exchange.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.apps.blast import blast_pipeline
from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    ClusterThread,
    TenantRegistry,
    build_schedule,
    replay,
)
from repro.serve.client import ServeClient
from repro.serve.protocol import encode, evaluation_options, ok_response
from repro.streaming import pipeline_to_dict
from repro.sweep.cache import point_key


@pytest.fixture(scope="module")
def model():
    return pipeline_to_dict(blast_pipeline())


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    config = ClusterConfig(
        shards=2,
        workers_per_shard=1,
        calibrate=2,
        cache_dir=str(tmp_path_factory.mktemp("cluster-cache")),
        tenants=[
            ("acme", 200.0, 100.0, None),
            ("tiny", 1.0, 2.0, None),
        ],
    )
    with ClusterThread(config) as handle:
        yield handle


@pytest.fixture()
def client(cluster):
    with ServeClient(cluster.host, cluster.port, connect_retries=4) as c:
        yield c


def _digest(model, params):
    """The router's routing digest for an analyze request (same derivation)."""
    return point_key(model, params, evaluation_options({}, op="analyze"))


class TestRouterOps:
    def test_ping_identifies_the_router(self, client):
        result = client.ping()["result"]
        assert result["role"] == "router"
        assert result["shards"] == ["shard-0", "shard-1"]
        assert result["down"] == []

    def test_capacity_rolls_up_all_shards(self, client):
        result = client.capacity()["result"]
        assert set(result["shards"]) == {"shard-0", "shard-1"}
        beta = result["cluster_service_curve"]
        assert beta["rate_rps"] == pytest.approx(
            sum(doc["rate_rps"] for doc in beta["shards"].values())
        )
        per_shard = [doc["service_curve"] for doc in result["shards"].values()]
        assert all(doc["service_rate_rps"] > 0 for doc in per_shard)
        names = {doc["name"] for doc in result["tenants"]["tenants"]}
        assert {"acme", "tiny"} <= names

    def test_stats_exposes_router_counters(self, client):
        client.ping()
        result = client.stats()["result"]
        assert result["role"] == "router"
        assert result["router"]["cluster.requests"]["value"] >= 1
        assert set(result["shards"]) == {"shard-0", "shard-1"}


class TestAffinityRouting:
    def test_identical_requests_stick_and_hit_the_cache(self, client, model):
        params = {"scale:network": 2.0}
        first = client.analyze(model, params, tenant="acme")
        assert first["ok"], first
        again = client.analyze(model, params, tenant="acme")
        assert again["result"]["shard"] == first["result"]["shard"]
        assert again["result"]["cached"] is True

    def test_routing_matches_the_ring(self, cluster, client, model):
        ring = cluster.router.ring
        for scale in (1.0, 1.5, 3.0, 4.0):
            params = {"scale:network": scale}
            response = client.analyze(model, params, tenant="acme")
            assert response["ok"], response
            assert response["result"]["shard"] == ring.route(_digest(model, params))

    def test_distinct_points_spread_over_shards(self, cluster, model):
        ring = cluster.router.ring
        owners = {
            ring.route(_digest(model, {"scale:network": 1.0 + i * 0.25}))
            for i in range(32)
        }
        assert owners == {"shard-0", "shard-1"}


class TestTenantAdmission:
    def test_unknown_tenant_is_rejected(self, client, model):
        response = client.analyze(model, {}, tenant="nobody")
        assert response["status"] == 429
        assert response["error"]["code"] == "unknown_tenant"

    def test_anonymous_traffic_needs_identity_once_tenants_exist(self, client, model):
        response = client.analyze(model, {})
        assert response["status"] == 429
        assert response["error"]["code"] == "tenant_required"

    def test_tenant_exceeding_burst_gets_429_with_live_bound(self, client, model):
        responses = [
            client.analyze(model, {"scale:compute": 1.0}, tenant="tiny")
            for _ in range(6)
        ]
        rejected = [r for r in responses if r.get("status") == 429]
        admitted = [r for r in responses if r.get("ok")]
        # burst 2 at 1 rps: at most ~3 tokens can exist across the burst
        assert len(admitted) <= 3
        assert len(rejected) >= 3
        for r in rejected:
            assert r["error"]["code"] == "rejected_rate"
            assert r["error"]["retry_after_s"] > 0
            assert r["error"]["tenant"] == "tiny"
            assert r["error"]["delay_bound_s"] > 0

    def test_register_tenant_quotes_bounds(self, client):
        response = client.register_tenant("newbie", 50.0, 20.0, slo_ms=500.0)
        assert response["ok"], response
        result = response["result"]
        assert result["delay_bound_s"] > 0
        assert result["aggregate_delay_bound_s"] >= result["delay_bound_s"] * 0
        assert result["stable"] is True
        listed = client.tenants()["result"]
        assert "newbie" in {doc["name"] for doc in listed["tenants"]}

    def test_shard_refuses_cluster_ops(self, cluster):
        shard = cluster.shards[0]
        with ServeClient(shard.host, shard.port, connect_retries=4) as direct:
            response = direct.tenants()
            assert response["status"] == 501
            assert response["error"]["code"] == "cluster_only"


class TestLoadReplay:
    def test_schedule_is_deterministic_and_well_formed(self):
        kwargs = dict(
            duration_s=2.0,
            rate_rps=50.0,
            tenants=[("acme", 3.0), ("tiny", 1.0)],
            point_pool=[{"scale:network": s} for s in (1.0, 2.0, 3.0)],
            seed=7,
        )
        a = build_schedule(**kwargs)
        b = build_schedule(**kwargs)
        assert a == b
        assert len(a) == 100
        assert all(0.0 <= e.at_s <= 2.0 for e in a)
        assert {e.tenant for e in a} <= {"acme", "tiny"}
        assert {tuple(e.params.items()) for e in a} <= {
            (("scale:network", 1.0),), (("scale:network", 2.0),),
            (("scale:network", 3.0),),
        }

    def test_replay_against_the_cluster(self, cluster, model):
        schedule = build_schedule(
            duration_s=1.0,
            rate_rps=30.0,
            tenants=[("acme", 1.0)],
            point_pool=[{"scale:network": s} for s in (1.0, 2.0, 5.0)],
            seed=11,
        )
        report = replay(
            cluster.host, cluster.port, schedule, model=model, connections=4
        )
        assert report.offered == len(schedule)
        assert report.errors == 0
        assert report.ok + report.rejected == report.offered
        assert report.ok >= 0.9 * report.offered  # acme's envelope covers 30 rps
        tenant_doc = report.per_tenant["acme"]
        assert tenant_doc["ok"] == report.ok
        assert tenant_doc["p99_s"] > 0


class TestFailover:
    @pytest.fixture()
    def small_cluster(self, tmp_path):
        config = ClusterConfig(
            shards=2,
            workers_per_shard=1,
            calibrate=0,
            cache_dir=str(tmp_path / "cache"),
            # this class asserts on the *unhealed* failure state; the
            # supervisor would restart the victim mid-assertion
            supervise=False,
        )
        with ClusterThread(config) as handle:
            yield handle

    def test_shard_death_reroutes_to_the_ring_successor(self, small_cluster, model):
        """The cluster analogue of the sweep BrokenProcessPool test:
        kill a shard out from under the router, then request a point
        that shard owned — the router must answer from the successor
        and surface the loss in /stats."""
        ring = small_cluster.router.ring
        params, victim = None, None
        for scale in (1.0, 1.25, 1.5, 1.75, 2.0, 2.5):
            candidate = {"scale:network": scale}
            owner = ring.route(_digest(model, candidate))
            params, victim = candidate, owner
            break
        survivor = next(s for s in small_cluster.shards if s.name != victim)
        dead = next(s for s in small_cluster.shards if s.name == victim)
        dead.kill()
        with ServeClient(
            small_cluster.host, small_cluster.port, connect_retries=4
        ) as client:
            response = client.analyze(model, params)
            assert response["ok"], response
            assert response["result"]["shard"] == survivor.name
            assert response["result"]["failover"] is True
            stats = client.stats()["result"]
            assert stats["down"] == [victim]
            assert stats["router"]["cluster.failover"]["value"] >= 1
            assert stats["shards"][victim] is None
        summary = small_cluster.stop()
        # the drain is still clean: the router dropped nothing and the
        # surviving shard exited losslessly; the victim died by design
        assert summary["clean"] is True
        assert summary["shard_exit_codes"][survivor.name] == 0


# --------------------------------------------------------------------- #
# the down set: a shard in it is never contacted
# --------------------------------------------------------------------- #


class _FakeShard:
    """An NDJSON endpoint on the test's event loop.

    Every frame is logged by op.  An op in ``hang_up`` is read and then
    the connection is closed without an answer (a shard that accepts
    and dies mid-exchange); any other op gets a canned ``ok`` answer,
    so the router's beta rollup and fan-outs see a healthy shard.
    """

    CAPACITY = {"service_curve": {"service_rate_rps": 100.0, "dispatch_latency_s": 0.001}}

    def __init__(self, hang_up: "frozenset[str]" = frozenset()) -> None:
        self.hang_up = hang_up
        self.frames: list[str] = []
        self.host = "127.0.0.1"
        self.port = 0
        self._server: "asyncio.base_events.Server | None" = None

    async def start(self) -> "_FakeShard":
        self._server = await asyncio.start_server(self._on_connection, self.host, 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def _on_connection(self, reader, writer) -> None:
        try:
            while line := await reader.readline():
                doc = json.loads(line)
                self.frames.append(doc["op"])
                if doc["op"] in self.hang_up:
                    break
                result = self.CAPACITY if doc["op"] == "capacity" else {"fake": True}
                writer.write(encode(ok_response(doc.get("id"), result)))
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    def close(self) -> None:
        assert self._server is not None
        self._server.close()


def _routed_to(router: ClusterRouter, model: dict, shard: str) -> dict:
    """Params of an analyze request whose ring owner is ``shard``."""
    for i in range(64):
        params = {"scale:network": 1.0 + i / 8}
        if router.ring.route(_digest(model, params)) == shard:
            return params
    raise AssertionError(f"no probe point routes to {shard}")


async def _call(router: ClusterRouter, doc: dict) -> dict:
    """One request over a fresh client connection to the router."""
    reader, writer = await asyncio.open_connection(router.host, router.port, limit=1 << 22)
    try:
        writer.write(encode(doc))
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()


class TestDownSet:
    ROUNDS = 3
    FORWARDS = 40

    def test_a_down_shard_is_never_contacted_until_it_rejoins(self, model):
        async def scenario() -> None:
            good = await _FakeShard().start()
            bad = await _FakeShard(hang_up=frozenset({"analyze"})).start()
            router = ClusterRouter(
                [("good", good.host, good.port), ("bad", bad.host, bad.port)],
                forward_timeout_s=10.0,
            )
            await router.start()
            link = router.links["bad"]
            # router side: every exchange with the bad shard starts while
            # it is out of the down set
            contacted_while_down = []
            exchange = link.exchange

            async def spy(frame: bytes) -> dict:
                contacted_while_down.append("bad" in router.down)
                return await exchange(frame)

            link.exchange = spy
            params = _routed_to(router, model, "bad")
            failover = router.metrics.counter("cluster.failover")
            try:
                for rnd in range(self.ROUNDS):
                    if rnd:
                        await router.rejoin_shard("bad", bad.host, bad.port)
                    assert router.links["bad"] is link  # same endpoint: same link
                    assert "bad" not in router.down
                    hung_before = bad.frames.count("analyze")
                    failover_before = failover.value
                    answers = await asyncio.gather(*(
                        _call(router, {"v": 1, "id": i, "op": "analyze",
                                       "model": model, "params": params})
                        for i in range(self.FORWARDS)
                    ))
                    # every forward is answered, by the ring successor
                    assert all(a["ok"] for a in answers), answers
                    assert {a["result"]["shard"] for a in answers} == {"good"}
                    # the first forwards after the rejoin reached the bad
                    # shard; each hang-up cost exactly one failover hop
                    hung = bad.frames.count("analyze") - hung_before
                    assert 1 <= hung <= self.FORWARDS
                    assert sum(bool(a["result"].get("failover")) for a in answers) == hung
                    assert failover.value - failover_before == hung
                    assert "bad" in router.down

                    # while down: neither forwards nor fan-outs contact it
                    seen = len(bad.frames)
                    for op in ("stats", "capacity", "tenants"):
                        assert (await _call(router, {"v": 1, "op": op}))["ok"]
                    again = await asyncio.gather(*(
                        _call(router, {"v": 1, "id": i, "op": "analyze",
                                       "model": model, "params": params})
                        for i in range(self.FORWARDS)
                    ))
                    assert all(a["ok"] and "failover" not in a["result"] for a in again)
                    assert len(bad.frames) == seen
                assert contacted_while_down and not any(contacted_while_down)
            finally:
                await router.drain()
                good.close()
                bad.close()

        asyncio.run(asyncio.wait_for(scenario(), 60.0))

    def test_fan_out_skips_a_shard_marked_down_after_it_began(self):
        """A fan-out that picked its shards before a concurrent failure
        marked one down must not contact that shard."""

        async def scenario() -> None:
            good, bad = await _FakeShard().start(), await _FakeShard().start()
            router = ClusterRouter(
                [("good", good.host, good.port), ("bad", bad.host, bad.port)],
                forward_timeout_s=10.0,
            )
            try:
                # runs after the fan-out has begun, before its asks start
                asyncio.get_running_loop().call_soon(router._mark_down, "bad")
                reports = await router._fan_out("stats")
                assert reports["good"]["ok"] and reports["bad"] is None
                assert bad.frames == []
            finally:
                await router._release()
                good.close()
                bad.close()

        asyncio.run(asyncio.wait_for(scenario(), 30.0))


# --------------------------------------------------------------------- #
# counting and reporting: each 429 counted once, in the registry
# --------------------------------------------------------------------- #


#: per-admission counter keys: the registry counts, no answer carries them
COUNTER_KEYS = {"admitted", "rejected_rate", "rejected_slo", "retightened"}


class TestRejectionCounts:
    def test_each_rejection_is_counted_once_under_its_code(self, model):
        async def scenario() -> None:
            shard = await _FakeShard().start()
            registry = TenantRegistry()
            registry.register("tiny", 1.0, 1.0)
            router = ClusterRouter([("only", shard.host, shard.port)], registry=registry)
            await router.start()
            try:
                frame = {"v": 1, "op": "analyze", "model": model, "tenant": "tiny"}
                assert (await _call(router, frame))["ok"]
                past_burst = await _call(router, frame)
                stranger = await _call(router, dict(frame, tenant="nobody"))
                assert (past_burst["status"], past_burst["error"]["code"]) == (
                    429, "rejected_rate")
                assert (stranger["status"], stranger["error"]["code"]) == (
                    429, "unknown_tenant")
                metrics = (await _call(router, {"v": 1, "op": "stats"}))["result"]["router"]
                counts = {
                    name: metrics[name]["value"]
                    for name in ("cluster.rejected", "cluster.rejected_rate",
                                 "cluster.unknown_tenant", "cluster.tenant.tiny.rejected")
                }
                assert counts == {
                    "cluster.rejected": 2, "cluster.rejected_rate": 1,
                    "cluster.unknown_tenant": 1, "cluster.tenant.tiny.rejected": 1,
                }
                # an unregistered name gets no series of its own
                assert "cluster.tenant.nobody.rejected" not in metrics
                tenants = (await _call(router, {"v": 1, "op": "tenants"}))["result"]
                registered = (await _call(router, {
                    "v": 1, "op": "register_tenant", "tenant": "extra",
                    "options": {"rate": 5.0, "burst": 2.0},
                }))["result"]
                for doc in [*tenants["tenants"], registered]:
                    assert not COUNTER_KEYS & set(doc), doc
            finally:
                await router.drain()
                shard.close()

        asyncio.run(asyncio.wait_for(scenario(), 30.0))

    def test_unregistered_names_add_no_metrics(self, model):
        async def scenario() -> None:
            shard = await _FakeShard().start()
            registry = TenantRegistry()
            registry.register("tiny", 1.0, 1.0)
            router = ClusterRouter([("only", shard.host, shard.port)], registry=registry)
            await router.start()
            try:
                stats = {"v": 1, "op": "stats"}
                frame = {"v": 1, "op": "analyze", "model": model}

                async def stranger(i: int) -> None:
                    reply = await _call(router, dict(frame, tenant=f"stranger-{i}"))
                    assert reply["error"]["code"] == "unknown_tenant"

                # the first rejection and the first stats answer create
                # the counters every later one only increments
                await stranger(0)
                await _call(router, stats)
                before = set((await _call(router, stats))["result"]["router"])
                for i in range(1, 50):
                    await stranger(i)
                metrics = (await _call(router, stats))["result"]["router"]
                assert set(metrics) == before
                assert metrics["cluster.rejected"]["value"] == 50
                assert metrics["cluster.unknown_tenant"]["value"] == 50
            finally:
                await router.drain()
                shard.close()

        asyncio.run(asyncio.wait_for(scenario(), 30.0))

    def test_capacity_asks_each_live_shard_once(self):
        async def scenario() -> None:
            shards = [await _FakeShard().start() for _ in range(2)]
            router = ClusterRouter(
                [(f"s{i}", shard.host, shard.port) for i, shard in enumerate(shards)]
            )
            await router.start()
            try:
                before = [shard.frames.count("capacity") for shard in shards]
                result = (await _call(router, {"v": 1, "op": "capacity"}))["result"]
                asked = [s.frames.count("capacity") - b for s, b in zip(shards, before)]
                assert asked == [1, 1]
                # the roll-up came from that one fan-out
                assert result["cluster_service_curve"]["rate_rps"] == 200.0
                assert set(result["shards"]) == {"s0", "s1"}
            finally:
                await router.drain()
                for shard in shards:
                    shard.close()

        asyncio.run(asyncio.wait_for(scenario(), 30.0))


class TestClientRetries:
    """``ServeClient.request(retries=...)`` against a router with one
    registered tenant, the blocking client on a worker thread."""

    @staticmethod
    async def _router(shard: "_FakeShard", rate: float) -> ClusterRouter:
        registry = TenantRegistry()
        registry.register("tiny", rate, 1.0)
        router = ClusterRouter([("only", shard.host, shard.port)], registry=registry)
        await router.start()
        return router

    @staticmethod
    def _analyze(router: ClusterRouter, model: dict, tenant: str) -> dict:
        with ServeClient(router.host, router.port) as c:
            return c.analyze(model, tenant=tenant, retries=3)

    def test_an_unknown_tenant_is_answered_at_once(self, model):
        async def scenario() -> None:
            shard = await _FakeShard().start()
            router = await self._router(shard, 1.0)
            try:
                reply = await asyncio.to_thread(self._analyze, router, model, "nobody")
                assert (reply["status"], reply["error"]["code"]) == (429, "unknown_tenant")
                metrics = (await _call(router, {"v": 1, "op": "stats"}))["result"]["router"]
                assert metrics["cluster.rejected"]["value"] == 1  # one frame, no retries
            finally:
                await router.drain()
                shard.close()

        asyncio.run(asyncio.wait_for(scenario(), 30.0))

    def test_a_request_past_the_burst_is_still_retried(self, model):
        async def scenario() -> None:
            shard = await _FakeShard().start()
            # 2 req/s: the second request comes well inside the 0.5 s refill
            router = await self._router(shard, 2.0)
            try:
                assert (await asyncio.to_thread(self._analyze, router, model, "tiny"))["ok"]
                reply = await asyncio.to_thread(self._analyze, router, model, "tiny")
                assert reply["ok"], reply
                metrics = (await _call(router, {"v": 1, "op": "stats"}))["result"]["router"]
                assert metrics["cluster.rejected_rate"]["value"] >= 1
                assert shard.frames.count("analyze") == 2
            finally:
                await router.drain()
                shard.close()

        asyncio.run(asyncio.wait_for(scenario(), 30.0))
