"""Shard supervision: heartbeats, restart with jittered backoff, rejoin.

Without supervision shard membership is fixed at start: a crashed
shard stays down forever and the router's ``down`` set only ever
grows.  The supervisor closes the loop:

1. **Detect** — every ``heartbeat_interval_s`` each shard is checked
   two ways: process liveness (``is_alive``) and a lightweight ping
   probe over a fresh connection (a process can be alive yet wedged).
   A probe also *fails by decree* while the router's link to that
   shard is flagged partitioned — the supervisor sits on the router's
   side of a partition and must not "see" a shard the data path
   cannot reach.
2. **Restart** — a dead process is relaunched with exponential backoff
   and **full jitter** (``uniform(0, min(cap, base * 2^attempt))``,
   the AWS-style decorrelation that stops a fleet of supervisors from
   thundering in lockstep); the RNG is injected so chaos runs are
   deterministic.  An alive-but-unreachable shard is *quarantined*
   instead (put in the router's ``down`` set, which no request path
   contacts) and rejoined the moment probes succeed again — restarting
   a healthy process cannot heal a partition.
3. **Rejoin** — a recovered shard re-enters through
   :meth:`~repro.cluster.router.ClusterRouter.rejoin_shard`: ring
   epoch bump, down-set removal, and a beta refresh that retightens
   every tenant's live bound back to restored capacity.  This is the
   only way out of ``down``: the router itself never retries a shard
   it has marked down.

The supervisor is an asyncio task on the router's loop.  A restart
forks the new shard on that loop's thread, as the cluster's start does,
and awaits the old process's exit and the new one's port report on the
loop, so heartbeats for the other shards never stall behind a restart.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import time
from typing import Any

from ..serve.engine import backoff_delay
from ..serve.protocol import MAX_LINE_BYTES, PROTOCOL_VERSION, encode
from .router import ClusterRouter
from .shards import ShardProcess

__all__ = ["ShardSupervisor"]

#: per-shard lifecycle states surfaced in ``/stats``
UP = "up"
QUARANTINED = "quarantined"
RESTARTING = "restarting"
FAILED = "failed"

#: consecutive failed probes before an *alive* shard is quarantined
PROBE_FAILURES = 2
#: restart attempts per incident before the shard is declared failed
MAX_RESTART_ATTEMPTS = 8


class ShardSupervisor:
    """Health-checks shard processes and heals the router's membership.

    The defaults of ``heartbeat_interval_s`` and ``probe_timeout_s``
    favor fast recovery on small clusters.
    """

    def __init__(
        self,
        shards: "list[ShardProcess]",
        router: ClusterRouter,
        *,
        heartbeat_interval_s: float = 2.0,
        probe_timeout_s: float = 1.0,
        rng: "random.Random | None" = None,
    ) -> None:
        self.shards = {shard.name: shard for shard in shards}
        self.router = router
        self.heartbeat_interval_s = heartbeat_interval_s
        self.probe_timeout_s = probe_timeout_s
        self._rng = rng if rng is not None else random.Random()
        self.states = {name: UP for name in self.shards}
        self.restarts = {name: 0 for name in self.shards}
        self._probe_misses = {name: 0 for name in self.shards}
        self._detected_down_at: dict[str, float] = {}
        self.last_recovery_s: dict[str, float] = {}
        self._restart_tasks: dict[str, "asyncio.Task[None]"] = {}
        self._task: "asyncio.Task[None] | None" = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("supervisor already started")
        self._task = asyncio.get_running_loop().create_task(self._run())
        self.router.supervisor = self

    async def stop(self) -> None:
        """Cancel the heartbeat loop and any in-flight restarts.

        Called *before* the router drains: a drain must not race a
        restart re-inserting the shard it is about to SIGTERM.
        """
        tasks = [t for t in [self._task, *self._restart_tasks.values()] if t is not None]
        for task in tasks:
            task.cancel()
        for task in tasks:
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self._task = None

    async def _run(self) -> None:
        while True:
            await self._tick()
            await asyncio.sleep(self.heartbeat_interval_s)

    # ------------------------------------------------------------------ #
    # one heartbeat round
    # ------------------------------------------------------------------ #

    async def _tick(self) -> None:
        await asyncio.gather(*(self._check(name) for name in self.shards))

    async def _check(self, name: str) -> None:
        task = self._restart_tasks.get(name)
        if task is not None and not task.done():
            return  # a restart owns this shard until it resolves
        if self.states[name] == FAILED:
            return
        shard = self.shards[name]
        if not shard.alive:
            self._probe_misses[name] = 0
            self._begin_restart(name)
            return
        if await self._probe(name):
            self._probe_misses[name] = 0
            if name in self.router.down:
                # alive, answering, but quarantined (transient exchange
                # failure or a healed partition): re-insert in place
                await self.router.rejoin_shard(name, shard.host, shard.port)
                self._record_recovery(name)
            self.states[name] = UP
            return
        self._probe_misses[name] += 1
        if self._probe_misses[name] >= PROBE_FAILURES:
            # alive but unreachable or hung: quarantine, don't kill —
            # a restart cannot heal a partition, and the down set
            # already holds traffic off it; probes continue and a
            # later success rejoins it
            if self.states[name] != QUARANTINED:
                self.states[name] = QUARANTINED
                self._detected_down_at[name] = time.monotonic()
                self.router._mark_down(name)

    async def _probe(self, name: str) -> bool:
        link = self.router.links.get(name)
        if link is not None and link.partitioned:
            return False  # router-side of the partition: unreachable by decree
        shard = self.shards[name]
        if shard.host is None or shard.port is None:
            return False
        return await self._probe_endpoint(shard.host, shard.port)

    async def _probe_endpoint(self, host: str, port: int) -> bool:
        """One ping over a fresh connection, bounded by probe_timeout_s."""
        timeout = self.probe_timeout_s
        writer = None
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port, limit=MAX_LINE_BYTES), timeout
            )
            writer.write(encode({"v": PROTOCOL_VERSION, "id": "hb", "op": "ping"}))
            await asyncio.wait_for(writer.drain(), timeout)
            line = await asyncio.wait_for(reader.readline(), timeout)
            return bool(line)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return False
        finally:
            if writer is not None:
                with contextlib.suppress(Exception):
                    writer.close()

    # ------------------------------------------------------------------ #
    # restart path
    # ------------------------------------------------------------------ #

    def backoff_delay(self, attempt: int) -> float:
        """Exponential backoff with full jitter: ``U(0, min(cap, b*2^k))``,
        the rule an engine's worker slots use too."""
        return backoff_delay(attempt, self._rng)

    def _begin_restart(self, name: str) -> None:
        self.states[name] = RESTARTING
        self._detected_down_at.setdefault(name, time.monotonic())
        self.router._mark_down(name)
        self._restart_tasks[name] = asyncio.get_running_loop().create_task(
            self._restart(name)
        )

    async def _restart(self, name: str) -> None:
        shard = self.shards[name]
        for attempt in range(MAX_RESTART_ATTEMPTS):
            await asyncio.sleep(self.backoff_delay(attempt))
            try:
                host, port = await shard.restart()
            except Exception:  # fork/bind failed; back off harder and retry
                continue
            if not await self._probe_endpoint(host, port):
                continue
            self.restarts[name] += 1
            await self.router.rejoin_shard(name, host, port)
            self._record_recovery(name)
            self._probe_misses[name] = 0
            self.states[name] = UP
            return
        # out of attempts: leave it down; /stats shows the verdict
        self.states[name] = FAILED

    def _record_recovery(self, name: str) -> None:
        detected = self._detected_down_at.pop(name, None)
        if detected is not None:
            self.last_recovery_s[name] = time.monotonic() - detected

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[str, Any]:
        """The ``/stats`` supervisor block."""
        return {
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "restarts_total": sum(self.restarts.values()),
            "shards": {
                name: {
                    "state": self.states[name],
                    "restarts": self.restarts[name],
                    "probe_misses": self._probe_misses[name],
                    "last_recovery_s": self.last_recovery_s.get(name),
                }
                for name in self.shards
            },
        }
