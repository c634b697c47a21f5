"""Sharded serve tier: consistent-hash routing + per-tenant NC admission.

The scaled-out form of :mod:`repro.serve`, built from the paper's own
multi-flow machinery (ROADMAP item 2).  N independent shards — each a
full single-node serving stack in its own process: asyncio loop, worker
pool, result cache — sit behind one router that

1. **routes by content digest**: requests hash by the same
   :func:`repro.sweep.cache.point_key` the caches use, on a consistent
   ring (:mod:`repro.cluster.ring`), so identical analyses land on the
   same shard and its cache stays hot;
2. **admits by tenant**: every tenant declares a leaky bucket
   ``alpha_i(t) = R_i t + b_i``; the router enforces it and holds the
   paper's §3 aggregate ``sum alpha_i`` against the cluster service
   curve rolled up from each shard's self-calibrated beta, quoting a
   live FIFO-residual delay bound per tenant
   (:mod:`repro.cluster.tenants`);
3. **fails over on the ring**: a shard that dies mid-request is marked
   down and traffic re-routes to its ring successor
   (:mod:`repro.cluster.router`);
4. **heals itself**: the first failed exchange puts a shard in the
   router's ``down`` set, which no request contacts; a supervisor
   heartbeats every shard, restarts crashed processes with full-jitter
   backoff, quarantines partitioned ones, and rejoins recovered shards
   into the ring — bumping a ring epoch and retightening every
   tenant's live bound to whatever capacity actually survives
   (:mod:`repro.cluster.supervisor`);
5. **keeps tenant state durable**: the tenant registry rewrites its
   NDJSON table, one record per tenant, before a registration is
   answered and loads it on router restart, so a bounce loses no
   envelope (:mod:`repro.cluster.tenants`).

* :mod:`repro.cluster.ring`         — consistent-hash ring;
* :mod:`repro.cluster.tenants`      — tenant registry + NC bounds,
  durable tenant table;
* :mod:`repro.cluster.router`       — routing/admission dispatch on the
  :mod:`repro.serve.service` shell;
* :mod:`repro.cluster.shards`       — shard subprocess supervision;
* :mod:`repro.cluster.supervisor`   — heartbeats, restart, rejoin;
* :mod:`repro.cluster.orchestrator` — cluster lifecycle (``repro
  cluster start``, the :class:`ClusterThread` test harness);
* :mod:`repro.cluster.loadgen`      — open-loop heavy-tailed replay;
* :mod:`repro.cluster.chaos`        — seeded fault injection under
  replayed load (kill/partition/heal), floor-assertable reports.
"""

from .chaos import ChaosReport, FaultEvent, chaos_schedule, run_chaos, tenant_table
from .loadgen import ReplayReport, ScheduledRequest, build_schedule, replay
from .orchestrator import Cluster, ClusterConfig, ClusterThread, run
from .ring import HashRing
from .router import ClusterRouter, RouterConfig, ShardDown, ShardLink
from .shards import ShardProcess
from .supervisor import ShardSupervisor, SupervisorConfig
from .tenants import Tenant, TenantRegistry

__all__ = [
    "ChaosReport",
    "FaultEvent",
    "chaos_schedule",
    "run_chaos",
    "tenant_table",
    "ReplayReport",
    "ScheduledRequest",
    "build_schedule",
    "replay",
    "Cluster",
    "ClusterConfig",
    "ClusterThread",
    "run",
    "HashRing",
    "ClusterRouter",
    "RouterConfig",
    "ShardDown",
    "ShardLink",
    "ShardProcess",
    "ShardSupervisor",
    "SupervisorConfig",
    "Tenant",
    "TenantRegistry",
]
