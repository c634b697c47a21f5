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

This module imports nothing of :mod:`repro.serve`, so a spawned worker
loads only what its calls need: an ``evaluate_point`` call imports
:mod:`repro.sweep.runner` when its message is read, and nothing of the
serving stack (asyncio, the client, the engine) is ever loaded.
"""

from __future__ import annotations

import pickle
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


def main(sock: socket.socket, inherited: "tuple[socket.socket, ...]" = ()) -> None:
    """Answer calls on ``sock`` until ``None`` or end-of-file.

    ``inherited`` are the engine's ends of the socket pairs that a
    forked worker holds copies of, its own among them.  They are closed
    first: while any process holds an engine end open, its worker never
    sees end-of-file.
    """
    for end in inherited:
        end.close()
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
