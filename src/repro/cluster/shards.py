"""Shard processes: one :class:`AnalysisServer` per OS process.

A shard is the full single-node serving stack — asyncio loop, worker
pool, result cache, admission — run in a process *forked* from its
router.  The router has imported the whole serving and evaluation path
by then, so a shard starts its engine at once: no second interpreter,
no import, and no resource tracker, which the ``spawn`` start method
runs next to the processes it starts.  A shard forks its own workers
too, so each of them starts with every module loaded (DESIGN §18).

The router forks on its event-loop thread, never on an executor
thread: ``concurrent.futures`` joins its threads at exit, and a process
forked on one would join itself and exit 1.  A fork copies only the
thread that forks, and a lock that another thread holds at that moment
stays held in the shard for good: a module's import lock, say, or the
buffer lock of ``sys.stdout``, which the shard needs for its banner.
``repro cluster start``'s router runs no other thread when it forks.  A
harness that hosts a cluster on a thread (``ClusterThread``, and the
chaos run, whose supervisor forks replacements while the load, monitor
and fault threads run) forks in a process that does, and takes that
risk; from Python 3.12 on, such a fork also warns
(``DeprecationWarning``).

A fork copies the router's signal handlers and descriptors too: its
listener, its client connections and the write ends of the other
shards' sentinel pipes.  The shard drops all of them first, by the rule
a worker starts by (``_shard_main``, :mod:`repro._worker`), and then
drains, as on SIGTERM, when the process that started it dies, however
it dies: it watches that process's sentinel on its event loop.  Its
body lives in :mod:`repro.serve.server`, next to the server it runs.

Starting clean also closes the write end of :mod:`multiprocessing`'s
own exit pipe, which only the shard held, so ``Process.sentinel`` reads
end-of-file while the shard still runs and ``Process.join(timeout)``
waits for its exit with no bound.  This handle therefore waits for a
shard's exit by polling ``is_alive()`` until a deadline.

:class:`ShardProcess` is the supervisor-side handle: :meth:`fork`
starts the process, :meth:`listening` waits on the loop for the shard
to report its ephemeral ``(host, port)`` over a pipe, and two methods
take a shard out of the cluster:

* :meth:`terminate` — SIGTERM, the graceful path: the shard drains
  (answers in-flight work, stops its pool) and exits 0 iff lossless;
* :meth:`kill` — SIGKILL, the failure-injection path used by the
  failover tests: the process dies mid-request and the router must
  re-route to the ring successor.

:meth:`restart` is the supervision path back *into* the cluster: it
reaps whatever is left of the previous process and forks a fresh one
from the same :class:`~repro.serve.engine.ServeConfig` (ephemeral
port, so the replacement never races the corpse for the old socket).
The supervisor then re-inserts the new ``(host, port)`` into the
router's ring.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from multiprocessing.connection import Connection

from ..serve.engine import ServeConfig
from ..serve.server import _shard_main

__all__ = ["ShardProcess"]

_mp = multiprocessing.get_context("fork")
#: how often a shard's exit is looked for while it is awaited
_EXIT_POLL_S = 0.01


async def _readable(fd: int, timeout: float) -> bool:
    """Whether ``fd`` turns readable within ``timeout`` seconds, waited
    for on the running loop."""
    loop = asyncio.get_running_loop()
    ready = loop.create_future()
    loop.add_reader(fd, lambda: ready.done() or ready.set_result(True))
    try:
        return await asyncio.wait_for(ready, timeout)
    except asyncio.TimeoutError:
        return False
    finally:
        loop.remove_reader(fd)


class ShardProcess:
    """Supervisor handle for one shard subprocess."""

    def __init__(self, config: ServeConfig, *, start_timeout: float = 120.0) -> None:
        self.config = config
        self.name = config.name
        self.start_timeout = start_timeout
        self.host: "str | None" = None
        self.port: "int | None" = None
        self._process: "multiprocessing.process.BaseProcess | None" = None
        #: the end of the pipe the shard reports its endpoint on
        self._report: "Connection | None" = None

    def fork(self) -> None:
        """Fork the shard from this process; :meth:`listening` waits
        for it.  Call it on the thread that runs the event loop."""
        if self._process is not None:
            raise RuntimeError(f"shard {self.name!r} already started")
        report, conn = _mp.Pipe(duplex=False)
        process = _mp.Process(
            target=_shard_main,
            args=(self.config, conn),
            name=f"repro-{self.name}",
            daemon=False,  # a daemonic process cannot own a worker pool
        )
        try:
            process.start()
        finally:
            # closed before the next fork, so that only the shard holds
            # it and the report reads end-of-file if the shard dies
            conn.close()
        self._process, self._report = process, report

    async def listening(self) -> tuple[str, int]:
        """The ``(host, port)`` the shard reports once its listener is
        bound, waited for on the running loop."""
        report, self._report = self._report, None
        with report:
            if not await _readable(report.fileno(), self.start_timeout):
                self._process.terminate()
                raise TimeoutError(
                    f"shard {self.name!r} did not bind within {self.start_timeout} s"
                )
            # EOFError if the shard exited before it listened
            self.host, self.port = report.recv()
        return self.host, self.port

    @property
    def pid(self) -> "int | None":
        return None if self._process is None else self._process.pid

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    @property
    def exitcode(self) -> "int | None":
        return None if self._process is None else self._process.exitcode

    def _exited(self, timeout: float) -> bool:
        """Whether the process has exited, and been reaped, within
        ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        while self._process.is_alive():
            if time.monotonic() >= deadline:
                return False
            time.sleep(_EXIT_POLL_S)
        return True

    def terminate(self, timeout: float = 60.0) -> "int | None":
        """SIGTERM → graceful drain; returns the exit code (0 = lossless).
        A shard that has not exited ``timeout`` seconds later is
        SIGKILLed."""
        if self._process is None:
            return None
        if self._process.is_alive():
            self._process.terminate()
        if not self._exited(timeout):
            self._process.kill()
            self._exited(timeout)
        return self._process.exitcode

    def kill(self) -> None:
        """SIGKILL — no drain, no goodbye (failure injection)."""
        if self._process is not None and self._process.is_alive():
            self._process.kill()
            self._exited(10.0)

    async def restart(self) -> tuple[str, int]:
        """Reap the dead (or wedged) process, fork a replacement, and
        return the endpoint it reports.

        A still-alive process is SIGKILLed first: restart is the
        escalation path, a graceful exit would have been
        :meth:`terminate`.  Its exit is awaited on the loop, for at most
        10 s, so the other shards' heartbeats go on meanwhile.
        """
        if self._process is not None:
            if self._process.is_alive():
                self._process.kill()
                deadline = time.monotonic() + 10.0
                while self._process.is_alive() and time.monotonic() < deadline:
                    await asyncio.sleep(_EXIT_POLL_S)
            self._process = None
        self.host = None
        self.port = None
        self.fork()
        return await self.listening()
