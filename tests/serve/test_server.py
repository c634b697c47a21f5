"""End-to-end server tests: real sockets, real worker pool, real drain.

One module-scoped server carries the happy-path tests (startup costs a
pool spawn plus calibration, so it is shared); behaviors that need a
special configuration (admission, drain accounting) get their own
short-lived instances.
"""

import json
import socket
import threading

import pytest

from repro.apps.blast import blast_pipeline
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.sweep.runner import evaluate_point, point_seed
from repro.streaming import pipeline_to_dict

MODEL = pipeline_to_dict(blast_pipeline())

_STAGE = {"name": "a", "avg_rate": 1.0}
#: model documents of the wrong shape and the parser's error for each
MALFORMED_MODELS = [
    ({"name": "x", "source": {"rate": 1.0}},
     "ValueError: pipeline document missing key 'stages'"),
    ({"name": "x", "source": {"rate": 1.0}, "stages": [{"avg_rate": 1.0}]},
     "ValueError: stage entry missing ['name']"),
    ({"name": "x", "source": {"rate": 1.0}, "stages": ["abc"]},
     "ValueError: stage entry must be an object, got str"),
    ({"name": "x", "source": {}, "stages": [_STAGE]},
     "ValueError: source missing ['rate']"),
    ({"name": "x", "source": 3, "stages": [_STAGE]},
     "ValueError: source must be an object, got int"),
    ({"name": "x", "source": {"rate": 1.0}, "stages": 3},
     "ValueError: stages must be a list, got int"),
    ({"name": "x", "source": {"rate": 1.0}, "stages": [dict(_STAGE, volume_ratio=2)]},
     "ValueError: stage 'a' volume_ratio must be an object, got int"),
]


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    config = ServeConfig(
        port=0, workers=1, calibrate=2, cache_dir=str(cache_dir), slo_s=2.0
    )
    with ServerThread(config) as srv:
        yield srv


@pytest.fixture()
def client(served):
    with ServeClient(served.host, served.port) as c:
        yield c


class TestOps:
    def test_ping(self, client):
        resp = client.ping()
        assert resp["ok"] and resp["result"]["pong"]
        assert resp["result"]["protocol"] == 1

    def test_analyze_matches_direct_evaluation(self, client):
        params = {"scale:network": 2.0}
        resp = client.analyze(MODEL, params=params)
        assert resp["ok"], resp
        options = {"simulate": False, "packetized": False, "workload": None,
                   "base_seed": 42}
        direct = evaluate_point(MODEL, params, options, point_seed(42, params))
        assert resp["result"]["nc"] == direct["nc"]

    def test_second_request_hits_cache(self, client):
        params = {"scale:network": 3.0}
        first = client.analyze(MODEL, params=params)
        second = client.analyze(MODEL, params=params)
        assert first["result"]["cached"] is False
        assert second["result"]["cached"] is True
        assert second["result"]["nc"] == first["result"]["nc"]

    def test_simulate_returns_des_section(self, client):
        resp = client.simulate(MODEL, params={}, workload_mib=4, seed=3)
        assert resp["ok"], resp
        assert resp["result"]["des"]["makespan"] > 0

    def test_capacity_reports_self_model(self, client):
        cap = client.capacity()["result"]
        assert cap["service_curve"]["kind"] == "rate_latency"
        assert cap["service_curve"]["service_rate_rps"] > 0
        assert cap["arrival_curve"]["kind"] == "leaky_bucket"
        assert cap["delay_bound_s"] <= cap["slo_s"] * (1 + 1e-9)
        assert cap["stable"] is True
        assert {"name", "inflight", "draining"} <= set(cap)
        assert "batch_window_s" not in cap

    def test_stats_exposes_metrics_and_cache(self, client):
        st = client.stats()["result"]
        assert st["metrics"]["serve.requests"]["value"] >= 1
        assert st["metrics"]["serve.latency_s"]["type"] == "histogram"
        assert st["cache"]["entries"] >= 1
        assert sorted(st) == ["cache", "inflight", "metrics", "name"]

    def test_evaluation_error_is_422(self, client):
        resp = client.analyze(MODEL, params={"scale:no_such_stage": 2.0})
        assert not resp["ok"]
        assert resp["status"] == 422
        assert resp["error"]["code"] == "evaluation_error"

    def test_unknown_param_is_422(self, client):
        resp = client.analyze(MODEL, params={"foo": 1.0})
        assert resp["status"] == 422
        assert resp["error"]["code"] == "evaluation_error"
        assert resp["error"]["message"].startswith("ValueError: unknown axis 'foo'")

    @pytest.mark.parametrize("model,error", MALFORMED_MODELS, ids=lambda v: str(v)[:40])
    def test_malformed_model_gets_the_parsers_error(self, client, model, error):
        options = {"simulate": False, "packetized": False, "workload": None,
                   "base_seed": 42}
        assert evaluate_point(model, {}, options, 7)["error"] == error
        resp = client.analyze(model)
        assert (resp["status"], resp["error"]["code"]) == (422, "evaluation_error")
        assert resp["error"]["message"] == error

    def test_malformed_line_is_400_and_keeps_connection(self, client):
        client._file.write(b"this is not json\n")
        client._file.flush()
        resp = json.loads(client._file.readline())
        assert resp["status"] == 400
        assert client.ping()["ok"]  # connection survived the bad frame

    def test_unknown_op_code(self, client):
        resp = client.request("ping")  # sanity before the raw frame
        assert resp["ok"]
        client._file.write(b'{"op": "frobnicate"}\n')
        client._file.flush()
        resp = json.loads(client._file.readline())
        assert resp["error"]["code"] == "unknown_op"

    def test_concurrent_clients(self, served):
        results = []

        def one(i):
            with ServeClient(served.host, served.port) as c:
                results.append(c.analyze(MODEL, params={"scale:network": 1.0 + i})["ok"])

        threads = [threading.Thread(target=one, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [True] * 4


class TestAdmission:
    def test_rate_limit_rejects_excess_with_429(self):
        config = ServeConfig(port=0, workers=1, calibrate=0, rate=0.001, burst=2.0)
        with ServerThread(config) as srv:
            with ServeClient(srv.host, srv.port) as c:
                oks = [c.analyze(MODEL)["ok"] for _ in range(2)]
                rejected = c.analyze(MODEL)
            summary = srv.stop()
        assert oks == [True, True]
        assert not rejected["ok"]
        assert rejected["status"] == 429
        assert rejected["error"]["code"] == "rejected_rate"
        assert rejected["error"]["retry_after_s"] > 0
        assert summary["rejected"] == 1

    def test_slo_without_calibration_refuses_to_start(self):
        config = ServeConfig(port=0, workers=1, calibrate=0, slo_s=0.5)
        with pytest.raises(RuntimeError, match="calibration"):
            ServerThread(config, start_timeout=30.0)


class TestDrain:
    def test_clean_drain_counts(self):
        config = ServeConfig(port=0, workers=1, calibrate=0)
        srv = ServerThread(config)
        with ServeClient(srv.host, srv.port) as c:
            for _ in range(3):
                assert c.analyze(MODEL)["ok"]
        summary = srv.stop()
        assert summary["clean"] is True
        assert summary["served"] == 3
        assert summary["dropped"] == 0

    def test_shutdown_op_drains_server(self):
        config = ServeConfig(port=0, workers=1, calibrate=0)
        srv = ServerThread(config)
        with ServeClient(srv.host, srv.port) as c:
            resp = c.shutdown()
            assert resp["ok"] and resp["result"]["draining"]
        summary = srv.stop()
        assert summary["clean"] is True

    def test_listener_closes_after_drain(self):
        config = ServeConfig(port=0, workers=1, calibrate=0)
        srv = ServerThread(config)
        host, port = srv.host, srv.port
        srv.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1.0).close()
