"""The engine's pool dispatch.  A worker that dies costs the engine one
new worker, not the shard: the call it was running reruns on another
worker, and a call whose rerun dies too gets an error naming the death.
A call slower than the request timeout is answered 408 while the engine
goes on answering.  A worker that dies before its first answer is
restarted after a backoff, so one that cannot boot costs a bounded
number of process starts.  Workers die with their engine: a SIGKILLed
server or shard leaves no worker behind, and a SIGKILLed cluster
router leaves no shard either.  A parallel sweep runs its points on the
same workers (``repro._worker``), and a SIGKILLed sweep leaves none
behind.

The in-process server forks its workers (the default start method on
Linux), and so does a cluster shard, a spawned process that sets its
own start method.  A forked worker starts clean: one that replaces a
dead worker after the listener has bound holds no client connection
and takes its own SIGTERM.  The spawn path is checked in
``tests/test_import_layering.py``.
"""

import contextlib
import json
import multiprocessing
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import _worker
from repro.apps.blast import blast_pipeline
from repro.cluster import ClusterConfig, ClusterThread
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve import engine as engine_mod
from repro.serve.protocol import MAX_LINE_BYTES, evaluation_options
from repro.streaming import pipeline_to_dict
from repro.sweep.cache import point_key
from repro.sweep.runner import evaluate_point, point_seed

MODEL = pipeline_to_dict(blast_pipeline())
#: the params whose evaluation kills its worker, every time
KILLER = {"scale:network": 13.0}
#: the params whose evaluation takes 2 s
SLOW = {"scale:network": 17.0}

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=True) not in (None, "fork"),
    reason="worker-death injection relies on the fork start method",
)
linux_only = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="finds processes through /proc"
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


def _stat(pid):
    """The fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def _children(pid):
    """The pids of ``pid``'s child processes."""
    kids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat(entry.name)
            if fields is not None and int(fields[1]) == pid:
                kids.append(int(entry.name))
    return kids


def _still_running(pids, within_s):
    """The pids among ``pids`` that have not exited after ``within_s``
    seconds (an unreaped zombie has exited)."""
    deadline = time.monotonic() + within_s
    while True:
        running = [p for p in pids if (_stat(p) or ["Z"])[0] not in ("Z", "X")]
        if not running or time.monotonic() > deadline:
            return running
        time.sleep(0.05)


def _kill_all(pids):
    """SIGKILL what a failed orphan check left running."""
    for pid in _still_running(pids, within_s=0.0):
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)


def _tree(pid):
    """The pids of ``pid``'s descendants."""
    kids = _children(pid)
    return [p for kid in kids for p in (kid, *_tree(kid))]


@contextlib.contextmanager
def _repro(*args):
    """A ``repro`` command in a subprocess, once it prints that it is
    listening: yields the process and the port it listens on."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        for line in proc.stdout:
            listening = re.search(r"\[(serve|router)\] listening on [\d.]+:(\d+)", line)
            if listening:
                break
        else:
            raise AssertionError(f"repro {' '.join(args)} exited before listening")
        yield proc, int(listening.group(2))
    finally:
        proc.kill()
        proc.wait(30)
        proc.stdout.close()


def _replace_the_worker(server, port):
    """SIGKILL the one worker of ``server``, a ``repro serve`` that is
    listening, and return the pid of the worker that replaced it."""
    (first,) = _still_running(_children(server.pid), within_s=0.0)
    os.kill(first, signal.SIGKILL)
    with ServeClient("127.0.0.1", port) as c:
        assert c.analyze(MODEL)["ok"]
        assert _restarts(c) == 1
    (worker,) = _still_running(_children(server.pid), within_s=0.0)
    return worker


@fork_only
def test_sigkilled_worker_is_replaced_and_the_next_requests_answer():
    with ServerThread(ServeConfig(port=0, workers=1, calibrate=0)) as srv:
        with ServeClient(srv.host, srv.port) as c:
            assert c.analyze(MODEL)["ok"]
            (worker,) = srv.app.engine._workers
            pid = worker.process.pid
            os.kill(pid, signal.SIGKILL)
            answers = [c.analyze(MODEL, params={"scale:network": 1.0 + i}) for i in range(3)]
            assert [a["status"] for a in answers] == [200, 200, 200], answers
            assert _restarts(c) == 1


@fork_only
def test_request_that_always_kills_its_worker_gets_a_named_error(monkeypatch):
    monkeypatch.setattr(engine_mod, "evaluate_point", _killing_evaluate_point)
    with ServerThread(ServeConfig(port=0, workers=1, calibrate=0)) as srv:
        with ServeClient(srv.host, srv.port) as c:
            killed = c.analyze(MODEL, params=KILLER)
            after = c.analyze(MODEL, params={"scale:network": 2.0})
            # the worker and its one replacement died; no third restart
            assert _restarts(c) == 2
    assert killed["status"] == 500
    assert killed["error"]["code"] == "worker_died"
    assert "worker died evaluating this request" in killed["error"]["message"]
    assert after["ok"], after


@fork_only
def test_slow_evaluation_is_408_and_the_engine_keeps_answering(monkeypatch):
    monkeypatch.setattr(engine_mod, "evaluate_point", _slow_evaluate_point)
    config = ServeConfig(port=0, workers=2, calibrate=0, request_timeout_s=0.5)
    with ServerThread(config) as srv:
        with ServeClient(srv.host, srv.port) as c:
            slow = c.analyze(MODEL, params=SLOW)
            after = c.analyze(MODEL, params={"scale:network": 2.0})
    assert slow["status"] == 408 and slow["error"]["code"] == "timeout"
    assert after["ok"], after


def _dying_at_boot(monkeypatch, deaths):
    """Patch the worker body so that the first ``deaths`` workers exit
    before reading their first call (``None``: every worker does)."""
    boots = multiprocessing.Value("i", 0)
    real_main = _worker.main

    def main(sock):
        with boots.get_lock():
            boots.value += 1
            n = boots.value
        if deaths is None or n <= deaths:
            os._exit(1)
        real_main(sock)

    monkeypatch.setattr(_worker, "main", main)
    return boots


@fork_only
def test_worker_dying_at_boot_is_restarted_after_a_backoff(monkeypatch):
    boots = _dying_at_boot(monkeypatch, deaths=3)
    with ServerThread(ServeConfig(port=0, workers=1, calibrate=0)) as srv:
        with ServeClient(srv.host, srv.port) as c:
            t0 = time.monotonic()
            answer = c.analyze(MODEL)  # waits until the fourth worker boots
            waited = time.monotonic() - t0
            assert answer["ok"], answer
            assert _restarts(c) == 3 and boots.value == 4
            # a worker that has answered is replaced at once, with no backoff
            (worker,) = srv.app.engine._workers
            os.kill(worker.process.pid, signal.SIGKILL)
            assert c.analyze(MODEL, params={"scale:network": 2.0})["ok"]
            assert _restarts(c) == 4
    # three waits of U(0, 0.25), U(0, 0.5) and U(0, 1) s at most
    assert waited < 1.75 + 1.0


@fork_only
def test_worker_that_cannot_boot_is_restarted_a_bounded_number_of_times(monkeypatch):
    _dying_at_boot(monkeypatch, deaths=None)
    with ServerThread(ServeConfig(port=0, workers=2, calibrate=0)) as srv:
        with ServeClient(srv.host, srv.port) as c:
            time.sleep(2.0)
            restarts = _restarts(c)
        t0 = time.monotonic()
        srv.stop(timeout=30)
        drain_s = time.monotonic() - t0
    # without a backoff each slot restarts hundreds of times in 2 s; with
    # it the waits grow to U(0, 8) s.  The drain cuts a wait short.
    assert 2 <= restarts <= 24, restarts
    assert drain_s < 1.0, drain_s


@linux_only
def test_sigkilled_shard_worker_is_replaced_and_the_shard_answers(tmp_path):
    config = ClusterConfig(
        shards=2, workers_per_shard=1, calibrate=0,
        cache_dir=str(tmp_path / "cache"), supervise=False,
    )
    with ClusterThread(config) as cluster:
        victim = cluster.shards[0]
        options = evaluation_options({}, op="analyze")
        owned = [
            params for params in ({"scale:network": 1.0 + 0.25 * i} for i in range(32))
            if cluster.router.ring.route(point_key(MODEL, params, options)) == victim.name
        ][:3]
        (worker,) = _children(victim.pid)
        os.kill(worker, signal.SIGKILL)
        with ServeClient(cluster.host, cluster.port) as c:
            answers = [c.analyze(MODEL, params=params) for params in owned]
            shard_stats = c.stats()["result"]["shards"][victim.name]
    assert [a["status"] for a in answers] == [200, 200, 200], answers
    assert {a["result"]["shard"] for a in answers} == {victim.name}
    assert shard_stats["metrics"]["serve.pool_restarts"]["value"] == 1


@linux_only
def test_a_shard_forks_its_worker_and_it_answers_as_in_process(tmp_path):
    config = ClusterConfig(
        shards=1, workers_per_shard=1, calibrate=0,
        cache_dir=str(tmp_path / "cache"), supervise=False,
    )
    params = {"scale:network": 3.0}
    with ClusterThread(config) as cluster:
        (shard,) = cluster.shards
        (worker,) = _children(shard.pid)
        # a forked process keeps its parent's command line; a spawned
        # one runs spawn_main with a pipe of its own
        cmdline = Path(f"/proc/{shard.pid}/cmdline").read_bytes()
        assert b"spawn_main" in cmdline
        assert Path(f"/proc/{worker}/cmdline").read_bytes() == cmdline
        with ServeClient(cluster.host, cluster.port) as c:
            answer = c.analyze(MODEL, params=params)
    assert answer["ok"] and not answer["result"]["cached"], answer
    options = evaluation_options({}, op="analyze")
    want = evaluate_point(MODEL, params, options, point_seed(42, params))
    got = {k: answer["result"][k] for k in want if k != "elapsed"}
    assert got == json.loads(json.dumps({k: v for k, v in want.items() if k != "elapsed"}))


@linux_only
def test_a_connection_the_server_closes_is_closed_after_a_worker_restart():
    with _repro("serve", "--port", "0", "--workers", "1", "--calibrate", "0") as (
        server, port,
    ):
        # open while the new worker starts, so a fork holds a copy of it
        with socket.create_connection(("127.0.0.1", port), timeout=3.0) as sock:
            _replace_the_worker(server, port)
            # the server reads every byte, answers 413 and closes
            sock.sendall(b"x" * (MAX_LINE_BYTES + 1))
            received = b""
            while chunk := sock.recv(65536):  # times out if no end-of-file
                received += chunk
    assert json.loads(received)["error"]["code"] == "too_large"


@linux_only
def test_sigterm_to_a_restarted_worker_replaces_that_worker_alone():
    with _repro("serve", "--port", "0", "--workers", "1", "--calibrate", "0") as (
        server, port,
    ):
        worker = _replace_the_worker(server, port)
        os.kill(worker, signal.SIGTERM)
        assert _still_running([worker], within_s=5.0) == []
        with ServeClient("127.0.0.1", port) as c:
            assert c.analyze(MODEL, params={"scale:network": 2.0})["ok"]
            assert _restarts(c) == 2
        assert server.poll() is None


@linux_only
def test_workers_of_a_sigkilled_server_exit():
    workers = []
    try:
        with _repro("serve", "--port", "0", "--workers", "2", "--calibrate", "0") as (
            server, _port,
        ):
            workers = _children(server.pid)
            assert len(workers) == 2
            server.kill()
            server.wait(30)
            assert _still_running(workers, within_s=5.0) == []
    finally:
        _kill_all(workers)


@linux_only
def test_workers_of_a_sigkilled_sweep_exit(tmp_path):
    # eight simulated points of about 0.6 s each: still running when killed
    sweep = subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", "blast", "--grid", "scale:network=0.5:2:8",
         "--simulate", "--workload-mib", "2048", "--jobs", "2", "--out", str(tmp_path / "out")],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        deadline = time.monotonic() + 60.0
        while len(workers) < 2 and time.monotonic() < deadline:
            workers = _children(sweep.pid)
            time.sleep(0.01)
        assert len(workers) == 2, workers
        sweep.kill()
        sweep.wait(30)
        assert _still_running(workers, within_s=5.0) == []
    finally:
        sweep.kill()
        sweep.wait(30)
        _kill_all(workers)


@linux_only
def test_every_process_of_a_sigkilled_cluster_exits(tmp_path):
    tree = []
    try:
        with _repro(
            "cluster", "start", "--port", "0", "--shards", "2", "--calibrate", "0",
            "--cache-dir", str(tmp_path / "cache"),
        ) as (router, _port):
            tree = _tree(router.pid)
            # two shards, a worker each, and multiprocessing's resource tracker
            assert len(tree) == 5, tree
            router.kill()
            router.wait(30)
            assert _still_running(tree, within_s=15.0) == []
    finally:
        _kill_all(tree)


@linux_only
def test_shards_whose_router_dies_before_they_report_exit_cleanly(tmp_path):
    # a long calibration keeps the shards from reporting for a second or two
    router = subprocess.Popen(
        [sys.executable, "-m", "repro", "cluster", "start", "--port", "0",
         "--shards", "2", "--calibrate", "2000", "--cache-dir", str(tmp_path / "cache")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    tree = []
    try:
        deadline = time.monotonic() + 60.0
        while len(tree) < 5 and time.monotonic() < deadline:
            tree = _tree(router.pid)
            time.sleep(0.01)
        assert len(tree) == 5, tree  # both shards started their workers
        router.kill()
        router.wait(30)
        assert _still_running(tree, within_s=15.0) == []
        output = router.stdout.read()
    finally:
        router.kill()
        router.wait(30)
        router.stdout.close()
        _kill_all(tree)
    assert "Traceback" not in output, output
    assert output.count("drained (clean)") == 2, output


@linux_only
def test_workers_of_a_sigkilled_shard_exit(tmp_path):
    config = ClusterConfig(
        shards=1, workers_per_shard=2, calibrate=0,
        cache_dir=str(tmp_path / "cache"), supervise=False,
    )
    with ClusterThread(config) as cluster:
        victim = cluster.shards[0]
        workers = _children(victim.pid)
        assert len(workers) == 2
        victim.kill()
        try:
            assert _still_running(workers, within_s=5.0) == []
        finally:
            _kill_all(workers)
