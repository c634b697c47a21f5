"""How a worker process is started, fed, answered and stopped.

An analysis engine (:mod:`repro.serve.engine`) runs its calls on
workers from its event loop, and a parallel sweep
(:func:`repro.sweep.runner.evaluate_points`) through :func:`run_batch`;
:func:`start` starts a worker for either, joined to its caller by one
socket pair.  Every message, either way, is a body behind its 8-byte
big-endian length.  A worker first sends an empty message, which says
it has booted; its caller sends it nothing before that.  The caller
sends :func:`message`: the number of calls, then ``(function, [args,
...])`` pickled, one call from an engine and a chunk of points from a
sweep.  The worker calls ``function(*args)`` for each ``args`` in order
and answers each call, pickled, as soon as it returns: ``(True,
result)``, or ``(False, exception)`` when it raised.  A message it
cannot unpickle is answered with the exception once per call.  So every
call gets one answer, in order, and the first call of a message with no
answer is the one a dead worker was running.  A message of no calls
(:data:`STOP`) asks the worker to exit, and so does end-of-file: the
caller's end closes when the caller's process dies, however it dies, so
a worker never outlives its caller by more than one call.

A worker starts clean, however it was started.  A forked worker (on
Linux, those of ``repro serve``, of a sweep and of every cluster shard)
begins as a copy of its caller's process: a server's signal handlers,
its event loop's wake-up socket, and every descriptor open at the fork,
among them the listener, each client connection and the caller's ends
of the other workers' sockets.  So :func:`main` first restores the
default SIGTERM and SIGINT handlers, drops the wake-up descriptor and
closes every descriptor but its own socket and stdio.  Otherwise a
signal sent to the worker would drain its whole server, and a socket
the caller closes would stay open in the worker.  A cluster shard,
forked from its router, starts by the same rule
(:func:`repro.serve.server._shard_main`), keeping its report pipe, its
parent's sentinel and the descriptors behind ``sys.stdout`` and
``sys.stderr``.

This module imports nothing of :mod:`repro.serve`, so a spawned worker
loads only what its calls need: an ``evaluate_point`` call imports
:mod:`repro.sweep.runner` when its message is read, and nothing of the
serving stack (asyncio, the client, the engine) is ever loaded.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import socket
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

__all__ = [
    "HEADER", "MAX_CHUNK", "STOP", "WorkerDied", "frame", "main", "message",
    "run_batch", "start",
]

#: the length prefix of every message
HEADER = struct.Struct("!Q")
#: the number of calls, which leads a message to a worker
COUNT = struct.Struct("!I")


def frame(obj: Any) -> bytes:
    """``obj`` pickled, behind its length: a worker's answer."""
    body = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return HEADER.pack(len(body)) + body


def message(function: Callable[..., Any], calls: Sequence[tuple[Any, ...]]) -> bytes:
    """The message that asks a worker for ``function(*args)`` for each
    ``args`` of ``calls``: their number, then the two pickled."""
    body = COUNT.pack(len(calls)) + pickle.dumps(
        (function, calls), pickle.HIGHEST_PROTOCOL
    )
    return HEADER.pack(len(body)) + body


#: the message that asks a worker to exit: no calls
STOP = HEADER.pack(COUNT.size) + COUNT.pack(0)


class WorkerDied(Exception):
    """A worker process died while it was running a call."""

    @classmethod
    def of(cls, process: multiprocessing.process.BaseProcess) -> "WorkerDied":
        """The death of ``process``, named by its pid and exit code."""
        return cls(f"worker pid {process.pid} is gone (exit code {process.exitcode})")


def start(name: str) -> tuple[multiprocessing.process.BaseProcess, socket.socket]:
    """Start one worker process, by the process's default start method.

    Returns the process and the caller's end of its socket.
    """
    ours, theirs = socket.socketpair()
    process = multiprocessing.Process(
        target=main, args=(theirs,), name=name, daemon=True
    )
    try:
        process.start()
    except BaseException:
        ours.close()
        raise
    finally:
        theirs.close()
    return process, ours


def _start_clean(*keep: int) -> None:
    """Drop what a forked process inherited of its parent: a server's
    signal handlers, the wake-up descriptor, and every descriptor but
    0-2 and those in ``keep``."""
    # the two signals the serving shell takes; its handlers only wake
    # the shell's loop, through the wake-up descriptor
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.set_wakeup_fd(-1)
    # every range starts at 3 or above: os.closerange(0, 0) closes
    # every descriptor on CPython, where closerange(3, 3) closes none
    low = 3
    for fd in sorted({fd for fd in keep if fd >= low}):
        os.closerange(low, fd)
        low = fd + 1
    os.closerange(low, os.sysconf("SC_OPEN_MAX"))


def _receive(sock: socket.socket) -> bytes | None:
    """The body of the next message on ``sock``, or ``None`` once the
    process at the other end is gone."""
    try:
        header = sock.recv(HEADER.size, socket.MSG_WAITALL)
        if len(header) == HEADER.size:
            size = HEADER.unpack(header)[0]
            body = sock.recv(size, socket.MSG_WAITALL)
            if len(body) == size:
                return body
    except OSError:
        pass
    return None


def main(sock: socket.socket) -> None:
    """Answer calls on ``sock`` until :data:`STOP` or end-of-file."""
    _start_clean(sock.fileno())
    with sock:
        try:
            sock.sendall(HEADER.pack(0))  # booted
            while body := _receive(sock):  # None once the caller is gone
                (count,) = COUNT.unpack_from(body)
                if not count:
                    return  # STOP
                try:
                    function, calls = pickle.loads(memoryview(body)[COUNT.size:])
                except Exception as exc:  # noqa: BLE001 - the caller re-raises it
                    sock.sendall(frame((False, exc)) * count)
                    continue
                for args in calls:
                    try:
                        reply = frame((True, function(*args)))
                    except Exception as exc:  # noqa: BLE001 - the caller re-raises it
                        reply = frame((False, exc))
                    sock.sendall(reply)
        except OSError:
            return  # the caller's end broke mid-message: it is gone


#: the most calls one message of a batch carries
MAX_CHUNK = 64


@dataclass(eq=False)
class _BatchWorker:
    """A batch's worker, and the calls of its message that have no
    answer yet (none while it is idle)."""

    process: multiprocessing.process.BaseProcess
    sock: socket.socket
    booted: bool = False
    calls: deque[int] = field(default_factory=deque)


def run_batch(
    function: Callable[..., Any],
    calls: Sequence[tuple[Any, ...]],
    workers: int,
) -> dict[int, tuple[bool, Any]]:
    """``function(*calls[i])`` for every ``i``, on ``workers`` new workers.

    An idle worker gets ``ceil(left / (4 * workers))`` of the ``left``
    calls no worker has, at most :data:`MAX_CHUNK`, in one message: the
    messages shrink to one call as the batch ends, so no worker is left
    with much to do while the others are idle.  Returns each call's
    answer by its index: ``(True, result)``, ``(False, exception)`` when
    it raised, or ``(False, WorkerDied)`` for the call a worker died
    running, which runs nowhere else.  The rest of a dead worker's
    message goes back to the queue, and a new worker takes its place
    unless the dead one never booted.  A call has no answer when no
    worker is left to run it.  Every worker has exited when this
    returns.
    """
    import selectors

    queue = deque(range(len(calls)))
    answers: dict[int, tuple[bool, Any]] = {}
    selector = selectors.DefaultSelector()
    live: list[_BatchWorker] = []

    def launch() -> None:
        try:
            worker = _BatchWorker(*start("repro-batch-worker"))
        except OSError:  # out of processes or memory: the others go on
            return
        live.append(worker)
        selector.register(worker.sock, selectors.EVENT_READ, worker)

    def stop(worker: _BatchWorker) -> None:
        worker.sock.close()  # an idle worker exits at end-of-file
        if worker.calls:  # no one will read its answers
            worker.process.kill()
        worker.process.join()

    def drop(worker: _BatchWorker) -> None:
        """Charge a dead worker's first unanswered call with its death,
        queue the rest, and replace it if it had booted."""
        live.remove(worker)
        selector.unregister(worker.sock)
        stop(worker)
        if worker.calls:
            answers[worker.calls.popleft()] = (False, WorkerDied.of(worker.process))
            queue.extendleft(reversed(worker.calls))
        if worker.booted:
            launch()

    def feed(worker: _BatchWorker) -> None:
        size = min(MAX_CHUNK, -(-len(queue) // (4 * workers)))
        chunk = [queue.popleft() for _ in range(size)]
        try:
            worker.sock.sendall(message(function, [calls[i] for i in chunk]))
        except OSError:  # it died idle: it had no call to charge
            queue.extendleft(reversed(chunk))
            drop(worker)
        else:
            worker.calls = deque(chunk)

    def read(worker: _BatchWorker) -> None:
        body = _receive(worker.sock)
        if body is None:
            drop(worker)
        elif not worker.booted:
            worker.booted = True
        else:
            i = worker.calls.popleft()
            try:
                answers[i] = pickle.loads(body)
            except Exception as exc:  # noqa: BLE001 - answered as raised
                answers[i] = (False, exc)

    try:
        for _ in range(workers):
            launch()
        # each pass reads one message of every worker that has one, then
        # feeds every idle worker, those whose siblings died among them
        while any(not worker.booted or worker.calls for worker in live):
            for key, _ in selector.select():
                read(key.data)
            for worker in list(live):
                if worker.booted and not worker.calls and queue:
                    feed(worker)
        return answers
    finally:
        for worker in live:
            stop(worker)
        selector.close()
