"""Robustness of the NDJSON service shell, against both front ends.

The same suite runs against an :class:`AnalysisServer` with
``calibrate=0`` (no pool worker ever spawns: only ping, stats and
capacity reach its dispatch) and against a :class:`ClusterRouter` whose
only shard address is dead (ping, stats and capacity need no shard).

Invariants: exactly one answer per non-blank line, in order; every
answer is a JSON object with ``ok`` and ``status`` that echoes the id of
a valid request, and of a refused one whose id is readable; a hostile
frame gets a 400 and the connection goes on;
an overrun line gets one 413 and then EOF; in-flight returns to 0 after
every client, and a new ping still works.  The drain cases each get a
fresh instance, since a drain ends it.
"""

import contextlib
import json
import socket
import struct
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.router import ClusterRouter
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve.protocol import MAX_LINE_BYTES
from repro.serve.service import ServiceThread

#: frames that must be refused with a 400, never with a dropped connection
HOSTILE = [
    b"[" * 100_000,  # deeper than the JSON decoder's recursion limit
    b'{"op":"ping","id":' + b"7" * 5000 + b"}",  # past CPython's int-digit limit
    b'{"op":"analyze","model":{},"params":{"x":' + b"9" * 400 + b"}}",  # float overflow
    b'{"op":"analyze","model":{},"options":{"workload_mib":' + b"9" * 400 + b"}}",
    b'{"op":"register_tenant","tenant":"t","options":{"rate":' + b"9" * 400
    + b',"burst":1}}',
    b'{"op":"register_tenant","tenant":"t","options":{"rate":1,"burst":' + b"9" * 400
    + b"}}",
    b'{"op":"register_tenant","tenant":"t","options":{"rate":1,"burst":1,"slo_ms":'
    + b"9" * 400 + b"}}",
    b'{"op":"ping","v":true}',  # True == 1, but it is no version
    b'{"op":"ping","id":true}',
    b'{"op":"ping","id":1.5}',
    b'{"op":"frobnicate"}',
    b'{"op":"ping","extra":1}',
]
_TRUNCATED_FROM = b'{"op": "ping", "id": "t", "params": {}}'

valid = st.tuples(st.just("valid"), st.sampled_from(["ping", "stats", "capacity"]))
hostile = st.tuples(
    st.just("hostile"),
    st.one_of(
        st.sampled_from(HOSTILE),
        st.integers(1, len(_TRUNCATED_FROM) - 1).map(lambda k: _TRUNCATED_FROM[:k]),
        st.binary(max_size=32).map(lambda b: b"\xff" + b.replace(b"\n", b"")),  # not UTF-8
    ),
)
blank = st.tuples(st.just("blank"), st.sampled_from([b"", b" ", b"\t", b"\r", b" \x0b "]))
noise = st.tuples(st.just("any"), st.binary(max_size=64).map(lambda b: b.replace(b"\n", b"")))
bursts = st.lists(st.one_of(valid, hostile, blank, noise), min_size=1, max_size=12)


class _Router(ClusterRouter):
    """A router hosted without its cluster, which otherwise prints the banners."""

    def banner(self, host, port):
        return f"router listening on {host}:{port}"

    def drained(self, summary):
        return f"router drained: {summary}"


def _host(kind, drain_timeout_s=10.0):
    if kind == "server":
        return ServerThread(ServeConfig(
            port=0, workers=1, calibrate=0, drain_timeout_s=drain_timeout_s
        ))
    with socket.socket() as probe:  # a port nothing listens on once closed
        probe.bind(("127.0.0.1", 0))
        dead = probe.getsockname()[1]
    return ServiceThread(
        lambda: _Router([("dead", "127.0.0.1", dead)], drain_timeout_s=drain_timeout_s),
        start_timeout=30.0,
    )


@pytest.fixture(scope="module", params=["server", "router"])
def service(request):
    handle = _host(request.param)
    yield handle
    handle.stop(timeout=30.0)


def _exchange(handle, payload, timeout=20.0):
    """Send ``payload`` then EOF; returns every byte received until EOF."""
    with socket.create_connection((handle.host, handle.port), timeout=timeout) as sock:

        def send():
            with contextlib.suppress(OSError):  # the server may close first (413)
                sock.sendall(payload)
                sock.shutdown(socket.SHUT_WR)

        sender = threading.Thread(target=send)
        sender.start()
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break  # closed with our bytes unread: same as EOF here
            if not chunk:
                break
            chunks.append(chunk)
        sender.join(timeout)
    return b"".join(chunks)


def _settles(handle):
    """In-flight is back to 0, and a fresh connection still gets a pong."""
    deadline = time.monotonic() + 5.0
    while handle.app.inflight and time.monotonic() < deadline:
        time.sleep(0.005)
    assert handle.app.inflight == 0
    with ServeClient(handle.host, handle.port, timeout=10.0) as client:
        assert client.ping()["ok"]


class TestFrames:
    @settings(max_examples=40, deadline=None)
    @given(frames=bursts)
    @example(frames=[("hostile", frame) for frame in HOSTILE] + [("valid", "ping")])
    def test_one_answer_per_non_blank_line_in_order(self, service, frames):
        lines, expected = [], []
        for i, (kind, frame) in enumerate(frames):
            if kind == "valid":
                frame = json.dumps({"op": frame, "id": f"f{i}"}).encode()
            lines.append(frame + b"\n")
            if frame.strip():
                expected.append((kind, f"f{i}"))
        received = _exchange(service, b"".join(lines))
        assert received.endswith(b"\n") or not received
        answers = [json.loads(line) for line in received.splitlines()]
        assert len(answers) == len(expected)
        for (kind, frame_id), doc in zip(expected, answers):
            assert isinstance(doc, dict)
            assert isinstance(doc["ok"], bool) and isinstance(doc["status"], int)
            if kind == "valid":
                assert doc["ok"] and doc["id"] == frame_id
            elif kind == "hostile":
                assert doc["status"] == 400 and doc["id"] is None
        _settles(service)

    def test_a_readable_id_comes_back_on_a_400(self, service):
        frames = [
            (b'{"op":"frobnicate","id":"r1"}', "r1"),
            (b'{"op":"ping","id":2,"extra":1}', 2),
            (b'{"op":"ping","id":"r3","v":2}', "r3"),
            (b'{"op":"analyze","id":"r4","params":{"x":1}}', "r4"),  # no model
            (b'{"op":"ping","id":true}', None),  # not a valid id
            (b'{"op":"ping","id":["r6"]}', None),
            (b'{"op":"ping","id":"r7"', None),  # not JSON
        ]
        received = _exchange(service, b"".join(frame + b"\n" for frame, _ in frames))
        answers = [json.loads(line) for line in received.splitlines()]
        assert [(doc["status"], doc["id"]) for doc in answers] == [
            (400, frame_id) for _, frame_id in frames
        ]
        _settles(service)

    def test_oversize_line_gets_one_413_then_eof(self, service):
        payload = (
            b'{"op":"ping","id":"before"}\n'
            + b"x" * (MAX_LINE_BYTES + 1) + b"\n"
            + b'{"op":"ping","id":"after"}\n'
        )
        answers = [json.loads(line) for line in _exchange(service, payload).splitlines()]
        assert [(doc["id"], doc["status"]) for doc in answers] == [("before", 200), (None, 413)]
        assert answers[1]["error"]["code"] == "too_large"
        _settles(service)

    def test_client_gone_before_reading_its_answers(self, service):
        sock = socket.create_connection((service.host, service.port), timeout=10.0)
        sock.sendall(b'{"op":"stats"}\n' * 32)
        # SO_LINGER 0: close with a reset, answers unread
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        _settles(service)


def _stall(handle):
    """A client that pipelines ``stats`` frames and reads nothing.

    Their answers outgrow every buffer between the two ends (the kernel
    caps a socket's send buffer at 4 MiB by default), so the shell's
    write blocks with one frame in flight and it stops answering.
    """
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.connect((handle.host, handle.port))
    sock.sendall(b'{"op":"stats"}\n' * 50_000)
    requests = handle.app.metrics.counter(f"{handle.app.prefix}.requests")
    deadline = time.monotonic() + 20.0
    seen = None
    while seen != requests.value or handle.app.inflight != 1:
        assert time.monotonic() < deadline, "the shell never blocked on the write"
        seen = requests.value
        time.sleep(0.3)
    return sock


@pytest.mark.parametrize("kind", ["server", "router"])
class TestDrain:
    def test_stalled_reader_is_dropped_within_the_budget(self, kind):
        handle = _host(kind, drain_timeout_s=1.0)
        sock = _stall(handle)
        try:
            started = time.monotonic()
            summary = handle.stop(timeout=1.0 + 2.0)  # TimeoutError if the drain wedges
            assert time.monotonic() - started < 1.0 + 2.0
            assert not handle._thread.is_alive()
            assert summary["dropped"] >= 1 and summary["clean"] is False
        finally:
            sock.close()

    def test_slow_reader_drains_clean(self, kind):
        handle = _host(kind, drain_timeout_s=10.0)
        sock = _stall(handle)
        result = {}
        stopper = threading.Thread(target=lambda: result.update(handle.stop(timeout=30.0)))
        stopper.start()
        while not handle.app.draining:
            time.sleep(0.005)
        sock.settimeout(10.0)
        received = []
        with sock:
            while chunk := sock.recv(16384):
                received.append(chunk)
                time.sleep(0.001)
        stopper.join(30.0)
        assert result["clean"] is True and result["dropped"] == 0
        lines = b"".join(received).split(b"\n")
        assert lines[-1] == b""  # the stalled answer arrived whole
        assert all(json.loads(line)["ok"] for line in lines[:-1])
