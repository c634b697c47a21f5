"""The engine's pool dispatch.  A pool worker that dies costs the engine
one pool replacement, not the shard: the calls the broken pool took down
rerun on the new pool, and a call that breaks that one too gets an error
naming the death.  A call slower than the request timeout is answered
408 while the engine goes on answering."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.apps.blast import blast_pipeline
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve import engine as engine_mod
from repro.streaming import pipeline_to_dict
from repro.sweep.runner import evaluate_point

MODEL = pipeline_to_dict(blast_pipeline())
#: the params whose evaluation kills its worker, every time
KILLER = {"scale:network": 13.0}
#: the params whose evaluation takes 2 s
SLOW = {"scale:network": 17.0}

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=True) not in (None, "fork"),
    reason="worker-death injection relies on the fork start method",
)


def _killing_evaluate_point(model, params, options, seed):
    """Pool entry point that hard-kills its worker on :data:`KILLER`.

    Module level so it pickles by name; ``os._exit`` (not an exception)
    so the worker dies the way an OOM kill or a segfault looks.
    """
    if dict(params) == KILLER:
        os._exit(1)
    return evaluate_point(model, params, options, seed)


def _slow_evaluate_point(model, params, options, seed):
    """Pool entry point that takes 2 s on :data:`SLOW`."""
    if dict(params) == SLOW:
        time.sleep(2.0)
    return evaluate_point(model, params, options, seed)


def _restarts(client):
    return client.stats()["result"]["metrics"]["serve.pool_restarts"]["value"]


def test_sigkilled_worker_is_replaced_and_the_next_requests_answer():
    with ServerThread(ServeConfig(port=0, workers=1, calibrate=0)) as srv:
        with ServeClient(srv.host, srv.port) as c:
            assert c.analyze(MODEL)["ok"]
            (pid,) = srv.app.engine.executor._processes
            os.kill(pid, signal.SIGKILL)
            answers = [c.analyze(MODEL, params={"scale:network": 1.0 + i}) for i in range(3)]
            assert [a["status"] for a in answers] == [200, 200, 200], answers
            assert _restarts(c) == 1


def test_request_that_always_kills_its_worker_gets_a_named_error(monkeypatch):
    monkeypatch.setattr(engine_mod, "evaluate_point", _killing_evaluate_point)
    with ServerThread(ServeConfig(port=0, workers=1, calibrate=0)) as srv:
        with ServeClient(srv.host, srv.port) as c:
            killed = c.analyze(MODEL, params=KILLER)
            after = c.analyze(MODEL, params={"scale:network": 2.0})
            # the pool and its one replacement broke; no third restart
            assert _restarts(c) == 2
    assert killed["status"] == 500
    assert killed["error"]["code"] == "worker_died"
    assert "worker died evaluating this request" in killed["error"]["message"]
    assert after["ok"], after


def test_slow_evaluation_is_408_and_the_engine_keeps_answering(monkeypatch):
    monkeypatch.setattr(engine_mod, "evaluate_point", _slow_evaluate_point)
    config = ServeConfig(port=0, workers=2, calibrate=0, request_timeout_s=0.5)
    with ServerThread(config) as srv:
        with ServeClient(srv.host, srv.port) as c:
            slow = c.analyze(MODEL, params=SLOW)
            after = c.analyze(MODEL, params={"scale:network": 2.0})
    assert slow["status"] == 408 and slow["error"]["code"] == "timeout"
    assert after["ok"], after
