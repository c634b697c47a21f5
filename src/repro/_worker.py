"""The body of an analysis engine's worker process.

An engine (:mod:`repro.serve.engine`) joins each of its worker
processes to its event loop by one socket pair.  Every message, either
way, is a pickle behind an 8-byte big-endian length.  A worker first
sends an empty message, which says it has booted; the engine sends it
no call before that.  The engine sends ``(function, args)``; the worker
calls ``function(*args)`` and answers ``(True, result)``, or
``(False, exception)`` when the call raised.
``None`` asks the worker to exit, and so does end-of-file: the engine's
end of the socket closes when the engine's process dies, however it
dies, so a worker never outlives its engine by more than the call it is
running.

A worker starts clean, however it was started.  A forked worker (those
of ``repro serve`` on Linux and of every cluster shard) begins as a copy
of its engine's process: the shell's signal handlers, its event loop's
wake-up socket, and a copy of every descriptor open at the fork,
among them the listener, each client connection and the engine's ends
of the other workers' sockets.  So :func:`main` first restores the
default SIGTERM and SIGINT handlers, drops the wake-up descriptor and
closes every descriptor but its own socket and stdio.  Otherwise a
signal sent to the worker would drain its whole server, and a
connection the server closes would stay open in the worker.

This module imports nothing of :mod:`repro.serve`, so a spawned worker
loads only what its calls need: an ``evaluate_point`` call imports
:mod:`repro.sweep.runner` when its message is read, and nothing of the
serving stack (asyncio, the client, the engine) is ever loaded.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import struct
from typing import Any

__all__ = ["HEADER", "frame", "main"]

#: the length prefix of every message
HEADER = struct.Struct("!Q")


def frame(obj: Any) -> bytes:
    """``obj`` pickled, behind its length."""
    body = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return HEADER.pack(len(body)) + body


def _start_clean(keep: int) -> None:
    """Drop what a forked worker inherited of its engine's process: the
    shell's signal handlers, the wake-up descriptor, and every
    descriptor but stdio and ``keep``."""
    # the two signals the serving shell takes; its handlers only wake
    # the shell's loop, through the wake-up descriptor
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.set_wakeup_fd(-1)
    os.closerange(3, keep)
    os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))


def main(sock: socket.socket) -> None:
    """Answer calls on ``sock`` until ``None`` or end-of-file."""
    _start_clean(sock.fileno())
    with sock, sock.makefile("rb") as stream:
        try:
            sock.sendall(HEADER.pack(0))  # booted
            while True:
                header = stream.read(HEADER.size)
                if len(header) < HEADER.size:
                    return  # end-of-file: the engine closed its end or died
                body = stream.read(HEADER.unpack(header)[0])
                try:
                    call = pickle.loads(body)
                    if call is None:
                        return
                    function, args = call
                    reply = frame((True, function(*args)))
                except Exception as exc:  # noqa: BLE001 - the engine re-raises it
                    reply = frame((False, exc))
                sock.sendall(reply)
        except OSError:
            return  # the engine's end broke mid-message: it is gone
