"""Shard processes: one :class:`AnalysisServer` per OS process.

A shard is the full single-node serving stack — asyncio loop, worker
pool, result cache, admission — run under the *spawn* start method
(fork is unsafe once any thread exists, and the pytest harness is
threaded).  The shard itself is single-threaded, and by the time its
engine starts a worker it has imported the whole serving and evaluation
path, so it *forks* its workers: each starts with every module loaded,
where a spawned one would import them again (DESIGN §18).  A shard
drains, as on SIGTERM, when the process that started it dies, however
it dies: it watches that process's sentinel on its event loop.  Its
body lives in :mod:`repro.serve.server`, so that a spawned shard
imports nothing of :mod:`repro.cluster` to find it.

:class:`ShardProcess` is the supervisor-side handle: it launches the
process, waits for the shard to report its ephemeral ``(host, port)``
over a pipe, and exposes the two ways a shard leaves the cluster:

* :meth:`terminate` — SIGTERM, the graceful path: the shard drains
  (answers in-flight work, stops its pool) and exits 0 iff lossless;
* :meth:`kill` — SIGKILL, the failure-injection path used by the
  failover tests: the process dies mid-request and the router must
  re-route to the ring successor.

:meth:`restart` is the supervision path back *into* the cluster: it
reaps whatever is left of the previous process and launches a fresh
one from the same :class:`~repro.serve.engine.ServeConfig` (ephemeral
port, so the replacement never races the corpse for the old socket).
The supervisor then re-inserts the new ``(host, port)`` into the
router's ring.
"""

from __future__ import annotations

import multiprocessing

from ..serve.engine import ServeConfig
from ..serve.server import _shard_main

__all__ = ["ShardProcess"]

# spawn, not fork: shards start from a clean interpreter regardless of
# what threads the launching process (pytest, the CLI) already runs
_mp = multiprocessing.get_context("spawn")


class ShardProcess:
    """Supervisor handle for one shard subprocess."""

    def __init__(self, config: ServeConfig, *, start_timeout: float = 120.0) -> None:
        self.config = config
        self.name = config.name
        self.start_timeout = start_timeout
        self.host: "str | None" = None
        self.port: "int | None" = None
        self._process: "multiprocessing.process.BaseProcess | None" = None

    def start(self) -> tuple[str, int]:
        """Launch the shard; blocks until its listener is bound."""
        if self._process is not None:
            raise RuntimeError(f"shard {self.name!r} already started")
        parent_conn, child_conn = _mp.Pipe(duplex=False)
        self._process = _mp.Process(
            target=_shard_main,
            args=(self.config, child_conn),
            name=f"repro-{self.name}",
            daemon=False,  # a daemonic process cannot own a worker pool
        )
        self._process.start()
        child_conn.close()
        if not parent_conn.poll(self.start_timeout):
            self._process.terminate()
            raise TimeoutError(
                f"shard {self.name!r} did not bind within {self.start_timeout} s"
            )
        self.host, self.port = parent_conn.recv()
        parent_conn.close()
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

    def terminate(self, timeout: float = 60.0) -> "int | None":
        """SIGTERM → graceful drain; returns the exit code (0 = lossless)."""
        if self._process is None:
            return None
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout)
        return self._process.exitcode

    def kill(self) -> None:
        """SIGKILL — no drain, no goodbye (failure injection)."""
        if self._process is not None and self._process.is_alive():
            self._process.kill()
            self._process.join(10.0)

    def restart(self) -> tuple[str, int]:
        """Reap the dead (or wedged) process and launch a replacement.

        Blocks until the new process reports its listener endpoint —
        the supervisor runs this in an executor.  A still-alive process
        is SIGKILLed first: restart is the escalation path, a graceful
        exit would have been :meth:`terminate`.
        """
        if self._process is not None:
            if self._process.is_alive():
                self._process.kill()
            self._process.join(10.0)
            self._process = None
        self.host = None
        self.port = None
        return self.start()
