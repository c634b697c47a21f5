"""The ``cluster_mix`` workload: open-loop analyze traffic to a cluster.

``repro cluster start`` runs a router and two shards with one worker
each, serving two tenants.  One asyncio thread in this process offers
the traffic over at most ``nproc`` connections (lanes).  Arrival times
and tenants come from the program's own traffic model,
:func:`repro.cluster.loadgen.build_schedule` (bounded-Pareto gaps), as
in ``benchmarks/bench_scale.py``.  A fixed share of the requests asks
for that benchmark's hot point pool, answered from the shard caches.
The rest ask for fresh points of the ``sweep_nc`` what-if grids, which
cost a worker NC evaluation and a cache write.  Everything is drawn
from the seed.

The router answers one request per connection at a time, so requests
sent while a lane is busy wait in the socket.  Latency is timed from
each request's due time, which counts that wait, and the generator's
own lateness (send time minus due time) is reported.

A run starts the cluster at least ``SEGMENTS`` times.  Each start is
timed until its first answer (``setup_s``), warmed up, then measured
for an equal share of the run's seconds.  The run reports the median
segment, and the server CPU pooled over the segments.  A host-speed
probe runs every ``PROBE_EVERY_S`` of the measured phases;
``cpu_ms_per_req`` is divided by the slowdown it saw.  The probe does
not slow with the server's own load: see ``README.md``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import random
import re
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from batch import sweep_specs
from common import (
    OUT,
    VARIANTS,
    child_env,
    mean,
    median,
    now,
    probe,
    process_tree,
    quantile,
    remove_tree,
    fresh_dir,
    slowdown,
    start_time,
    tree_cpu_s,
    tree_peak_rss_mb,
    use_program,
)

#: offered load: about half the knee of a 2-shard cluster on 2 lanes
RATE = 200.0
#: connections the generator uses: two, but never more than ``nproc``
LANES = max(1, min(2, len(os.sched_getaffinity(0))))
#: the hot point pool of ``benchmarks/bench_scale.py``, on the BLAST model
HOT_POOL = [{"scale:network": 1.0 + 0.25 * i} for i in range(12)]
#: share of requests for the hot pool.  An assumption, not a measured
#: mix: it gives cache reads and worker compute equal request counts
HOT_SHARE = 0.5
#: tail of the bounded-Pareto gaps.  ``build_schedule``'s default of 1.5
#: lets the seed decide how bursty a run is (the gaps' coefficient of
#: variation ranges 1.2-8 over 40 seeds); at 2.0 its median is 1.07,
#: the burstiness of Poisson arrivals
PARETO_SHAPE = 2.0
SEGMENTS = 3
#: a longer run starts the cluster more often, so that no segment asks
#: for more fresh points than the ``sweep_nc`` grids hold
SEGMENT_MAX_S = 10.0
WARMUP_S = 1.0
#: an answer later than this after its due time misses the SLO.  On a
#: quiet host the slowest answer of a measured phase takes 40-70 ms
LATENCY_LIMIT_MS = 100.0
TENANTS = ("t0", "t1")
#: one host-speed probe per this many seconds of the measured phase
PROBE_EVERY_S = 0.1
START_TIMEOUT_S = 120.0
STOP_GRACE_S = 10.0
LISTEN_RE = re.compile(r"\[router\] listening on ([\d.]+):(\d+)")


@dataclass
class Req:
    id: str
    due: float  # seconds after the phase origin
    lane: int
    tenant: str
    app: str
    params: dict[str, Any]
    options: dict[str, Any]
    hot: bool
    frame: bytes = b""
    at: float = 0.0  # absolute due time, set when the phase starts
    sent: float = 0.0
    recv: float = 0.0
    line: bytes = b""
    doc: "dict[str, Any] | None" = None


@dataclass
class Segment:
    setup_s: float = 0.0
    listen_s: float = 0.0
    first_req_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    answered: int = 0
    traced: bool = False
    reqs: list[Req] = field(default_factory=list)
    layers: dict[str, Any] = field(default_factory=dict)
    exit_code: "int | None" = None
    leftovers: int = 0
    #: host slowdown the probes measured during the measured phase
    phase_slowdown: float = 1.0



# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #


def fresh_points(variant: int, models: dict[str, Any]) -> list[tuple]:
    """``(app, params, options)`` of every ``sweep_nc`` grid point."""
    return [
        (next(app for app, model in models.items() if model == spec.base),
         dict(point.params), {"packetized": spec.packetized})
        for spec in sweep_specs(variant)
        for point in spec.points()
    ]


def _schedule_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"cluster_mix/{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def schedule(seed: int, tag: str, seconds: float, fresh: list) -> list[Req]:
    """``build_schedule`` arrivals and tenants; an exact :data:`HOT_SHARE`
    of them keeps its hot-pool point, the rest take the next fresh point."""
    from repro.cluster.loadgen import build_schedule

    events = build_schedule(
        duration_s=seconds, rate_rps=RATE, tenants=[(t, 1.0) for t in TENANTS],
        point_pool=HOT_POOL, seed=_schedule_seed(seed, tag), pareto_shape=PARETO_SHAPE,
    )
    rng = random.Random(f"cluster_mix/{seed}/{tag}")
    n_hot = round(HOT_SHARE * len(events))
    pattern = [True] * n_hot + [False] * (len(events) - n_hot)
    rng.shuffle(pattern)
    out = []
    for i, (event, is_hot) in enumerate(zip(events, pattern)):
        app, params, options = ("blast", event.params, {}) if is_hot else fresh.pop()
        out.append(Req(f"{tag}-{i}", event.at_s, i % LANES, event.tenant,
                       app, params, options, is_hot))
    return out


def encode(reqs: list[Req], models: dict[str, Any]) -> None:
    for r in reqs:
        r.frame = json.dumps({
            "v": 1, "id": r.id, "op": "analyze", "tenant": r.tenant,
            "model": models[r.app], "params": r.params, "options": r.options,
        }, separators=(",", ":")).encode() + b"\n"


def build_inputs(seed: int, seconds: float) -> dict[str, Any]:
    from repro.apps.blast import blast_pipeline
    from repro.apps.bump_in_the_wire import bitw_pipeline
    from repro.streaming import pipeline_to_dict

    models = {"blast": pipeline_to_dict(blast_pipeline()),
              "bitw": pipeline_to_dict(bitw_pipeline())}
    grid = fresh_points(seed % VARIANTS, models)
    n_segments = max(SEGMENTS, math.ceil(seconds / SEGMENT_MAX_S))
    segments = []
    for s in range(n_segments):
        # each cluster starts with an empty cache: a point is fresh
        # if this start has not been asked for it yet
        fresh = list(grid)
        random.Random(f"cluster_mix/{seed}/s{s}").shuffle(fresh)
        warm = [Req(f"s{s}-hot-{i}", 0.0, 0, TENANTS[i % len(TENANTS)], "blast",
                    params, {}, True)
                for i, params in enumerate(HOT_POOL)]
        warm += schedule(seed, f"s{s}-warm", WARMUP_S, fresh)
        measured = schedule(seed, f"s{s}-m", seconds / n_segments, fresh)
        encode(warm, models)
        encode(measured, models)
        segments.append((warm, measured))
    return {"models": models, "segments": segments}


# --------------------------------------------------------------------- #
# the wire
# --------------------------------------------------------------------- #


def call(host: str, port: int, doc: dict[str, Any], timeout: float = 60.0) -> dict:
    """One blocking NDJSON exchange on a fresh connection."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(json.dumps(doc).encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("connection closed before the answer")
            buf += chunk
    return json.loads(buf)


async def _open_loop(host: str, port: int, reqs: list[Req], timeout: float,
                     probes: "list[float] | None") -> float:
    """Offer ``reqs`` on schedule; returns the phase origin (the time
    their ``due`` offsets count from).  With ``probes``, also records the
    host-speed probe throughout the phase."""
    n = max(r.lane for r in reqs) + 1
    conns = [await asyncio.open_connection(host, port, limit=1 << 23) for _ in range(n)]
    by_lane = [[r for r in reqs if r.lane == k] for k in range(n)]
    origin = now() + 0.02

    async def send(k: int) -> None:
        writer = conns[k][1]
        for r in by_lane[k]:
            r.at = origin + r.due
            delay = r.at - now()
            if delay > 0:
                await asyncio.sleep(delay)
            r.sent = now()
            writer.write(r.frame)
            await writer.drain()

    async def receive(k: int) -> None:
        reader = conns[k][0]
        for r in by_lane[k]:
            r.line = await reader.readline()
            r.recv = now()

    done = asyncio.Event()

    async def sample() -> None:
        while not done.is_set():
            probes.append(probe())
            try:
                await asyncio.wait_for(done.wait(), PROBE_EVERY_S)
            except asyncio.TimeoutError:
                pass

    prober = asyncio.ensure_future(sample()) if probes is not None else None
    try:
        await asyncio.wait_for(
            asyncio.gather(*(send(k) for k in range(n)), *(receive(k) for k in range(n))),
            timeout,
        )
    except (asyncio.TimeoutError, ConnectionError):
        pass  # unanswered requests count as failed
    finally:
        done.set()
        if prober is not None:
            await prober
        for _reader, writer in conns:
            writer.close()
    for r in reqs:
        if r.line:
            try:
                r.doc = json.loads(r.line)
            except ValueError:
                r.doc = None
    return origin


def offer(host: str, port: int, reqs: list[Req],
          probes: "list[float] | None" = None) -> float:
    last = max((r.due for r in reqs), default=0.0)
    return asyncio.run(_open_loop(host, port, reqs, last + 60.0, probes))


# --------------------------------------------------------------------- #
# one cluster lifetime
# --------------------------------------------------------------------- #


def _tenant_flags(reqs: list[Req]) -> list[str]:
    """Envelopes that admit the whole schedule: any 429 is a failure."""
    flags = []
    for t in TENANTS:
        n = sum(1 for r in reqs if r.tenant == t)
        flags += ["--tenant", f"{t}={RATE:g},{n + 10}"]
    return flags


def run_segment(warm: list[Req], measured: list[Req], traced: bool) -> Segment:
    seg = Segment(traced=traced, reqs=warm + measured)
    workdir = fresh_dir("cluster-")
    log_path = workdir / "cluster.log"
    cmd = [
        sys.executable, "-m", "repro", "cluster", "start",
        "--host", "127.0.0.1", "--port", "0", "--shards", "2",
        "--workers-per-shard", "1", "--cache-dir", str(workdir / "cache"),
        *_tenant_flags(seg.reqs),
    ]
    os.sync()  # flush what earlier segments left dirty before timing
    with open(log_path, "w") as log:
        t_launch = now()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=workdir)
    pids: list = []
    try:
        host, port = _wait_listening(proc, log_path)
        seg.listen_s = now() - t_launch
        first = warm[0]
        first.sent = now()
        first.doc = call(host, port, json.loads(first.frame))
        first.recv = now()
        seg.setup_s = first.recv - t_launch
        seg.first_req_s = seg.setup_s - seg.listen_s
        for r in warm[1:len(HOT_POOL)]:
            r.sent = now()
            r.doc = call(host, port, json.loads(r.frame))
            r.recv = now()
        offer(host, port, warm[len(HOT_POOL):])
        before = call(host, port, {"v": 1, "id": "stats-0", "op": "stats"}) if traced else None
        probes: list[float] = []
        cpu0 = tree_cpu_s(proc.pid)
        origin = offer(host, port, measured, probes)
        seg.cpu_s = tree_cpu_s(proc.pid) - cpu0
        seg.phase_slowdown = slowdown(probes)
        after = call(host, port, {"v": 1, "id": "stats-1", "op": "stats"}) if traced else None
        pids = _tree_ids(proc.pid)
        seg.peak_rss_mb = tree_peak_rss_mb(proc.pid)
        seg.wall_s = max(r.recv for r in measured) - origin
        seg.answered = sum(1 for r in measured if r.doc is not None and r.doc.get("ok"))
        if traced:
            seg.layers = stats_layers(before, after)
    finally:
        seg.exit_code, seg.leftovers = _stop(proc, pids)
        remove_tree(workdir)
    return seg


def _wait_listening(proc: subprocess.Popen, log_path: Any) -> tuple[str, int]:
    """Poll the log for the router's listening line."""
    deadline = now() + START_TIMEOUT_S
    while now() < deadline:
        match = LISTEN_RE.search(log_path.read_text())
        if match:
            return match.group(1), int(match.group(2))
        if proc.poll() is not None:
            break
        time.sleep(0.002)
    raise RuntimeError(f"cluster did not start:\n{log_path.read_text()[-3000:]}")


def _tree_ids(root: int) -> list[tuple[int, "int | None"]]:
    return [(pid, start_time(pid)) for pid in process_tree(root)]


def _stop(proc: subprocess.Popen, pids: list) -> tuple["int | None", int]:
    """SIGTERM (the graceful drain), then reap anything left behind."""
    if not pids:
        pids = _tree_ids(proc.pid)
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        code = None
        proc.kill()
        proc.wait()
    # helpers such as multiprocessing's resource tracker exit on their
    # own shortly after the router; only what outlives the grace is killed
    deadline = now() + STOP_GRACE_S
    alive = [(p, t) for p, t in pids if p != proc.pid]
    while alive and now() < deadline:
        time.sleep(0.05)
        alive = [(p, t) for p, t in alive if start_time(p) == t]
    for pid, _t in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    return code, len(alive)


# --------------------------------------------------------------------- #
# per-layer numbers from the public stats op
# --------------------------------------------------------------------- #


def _metric(snapshot: dict, name: str, key: str) -> float:
    return float(snapshot.get(name, {}).get(key, 0) or 0)


def stats_layers(before: "dict | None", after: "dict | None") -> dict[str, Any]:
    """Deltas of the router's and shards' stats across the phase.

    Returns ``{}`` when the stats op does not have the expected shape.
    """
    try:
        r0, r1 = before["result"], after["result"]
        router0, router1 = r0["router"], r1["router"]
        names = sorted(r1["shards"])

        def rdelta(name: str, key: str = "value") -> float:
            return _metric(router1, name, key) - _metric(router0, name, key)

        def sdelta(name: str, key: str = "value") -> float:
            total = 0.0
            for shard in names:
                m0 = (r0["shards"].get(shard) or {}).get("metrics", {})
                m1 = (r1["shards"].get(shard) or {}).get("metrics", {})
                total += _metric(m1, name, key) - _metric(m0, name, key)
            return total

        fwd_n, fwd_s = rdelta("cluster.latency_s", "count"), rdelta("cluster.latency_s", "sum")
        eng_n, eng_s = sdelta("serve.latency_s", "count"), sdelta("serve.latency_s", "sum")
        svc_n, svc_s = sdelta("serve.service_s", "count"), sdelta("serve.service_s", "sum")
        hits, misses = sdelta("serve.cache.hits"), sdelta("serve.cache.misses")
        per_shard = [rdelta(f"cluster.shard.{n}.requests") for n in names]
    except (KeyError, TypeError, AttributeError):
        return {}
    forward_ms = 1e3 * fwd_s / fwd_n if fwd_n else None
    engine_ms = 1e3 * eng_s / eng_n if eng_n else None
    return {
        "cluster.forward_ms": forward_ms,
        "cluster.hop_ms": (
            forward_ms - engine_ms if forward_ms is not None and engine_ms is not None else None
        ),
        "cluster.shard_skew": (
            max(per_shard) / min(per_shard) if per_shard and min(per_shard) > 0 else None
        ),
        "cluster.failover": rdelta("cluster.failover"),
        "cluster.rejected": rdelta("cluster.rejected"),
        "serve.engine_ms": engine_ms,
        "serve.service_ms": 1e3 * svc_s / svc_n if svc_n else None,
        # engine time of every request minus worker compute of the
        # misses, per miss: the hits' cache reads ride along, so this is
        # an upper bound on the time a miss waits for dispatch
        "serve.pool_wait_ms": 1e3 * (eng_s - svc_s) / misses if misses else None,
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else None,
        "serve.rejected": sdelta("serve.rejected"),
        "nc.analyze_s": svc_s,
        "nc.analyze_calls": svc_n,
    }


# --------------------------------------------------------------------- #
# checks and the run
# --------------------------------------------------------------------- #


def verify(segments: list[Segment], models: dict[str, Any]) -> tuple[int, int, list[str]]:
    """``(attempted, failed, notes)``: every answer is OK and its ``nc``
    block equals ``evaluate_point`` run here on the same inputs."""
    from repro.serve.protocol import evaluation_options
    from repro.sweep import evaluate_point, point_seed

    reference: dict[str, str] = {}
    attempted = failed = 0
    notes: list[str] = []
    for seg in segments:
        for r in seg.reqs:
            attempted += 1
            doc = r.doc
            if doc is None or not doc.get("ok"):
                failed += 1
                status = None if doc is None else doc.get("status")
                if len(notes) < 10:
                    notes.append(f"{r.id}: no OK answer (status {status})")
                continue
            key = json.dumps([r.app, r.params, r.options], sort_keys=True)
            if key not in reference:
                options = evaluation_options(r.options, op="analyze")
                out = evaluate_point(models[r.app], r.params, options,
                                     point_seed(options["base_seed"], r.params))
                reference[key] = json.dumps(out.get("nc"), sort_keys=True)
            if json.dumps(doc["result"].get("nc"), sort_keys=True) != reference[key]:
                failed += 1
                if len(notes) < 10:
                    notes.append(f"{r.id}: nc differs from evaluate_point")
        if seg.exit_code != 0:
            failed += 1
            notes.append(f"cluster exited {seg.exit_code} (drain not clean)")
        if seg.leftovers:
            notes.append(f"{seg.leftovers} server process(es) outlived the drain")
    return attempted, failed, notes


def client_layers(reqs: list[Req]) -> dict[str, Any]:
    ok = [r for r in reqs if r.doc is not None and r.doc.get("ok")]
    lat = [1e3 * (r.recv - r.at) for r in ok]
    hit = [1e3 * (r.recv - r.at) for r in ok if r.doc["result"].get("cached")]
    miss = [1e3 * (r.recv - r.at) for r in ok if not r.doc["result"].get("cached")]
    lag = [1e3 * (r.sent - r.at) for r in reqs if r.sent]
    return {
        "client.p50_ms": quantile(lat, 0.5) if lat else None,
        "client.p99_ms": quantile(lat, 0.99) if lat else None,
        "client.hit_p50_ms": quantile(hit, 0.5) if hit else None,
        "client.miss_p50_ms": quantile(miss, 0.5) if miss else None,
        "client.samples": len(lat),
        "client.lag_p99_ms": quantile(lag, 0.99) if lag else None,
    }


def slo_frac(reqs: list[Req]) -> float:
    good = sum(
        1 for r in reqs
        if r.doc is not None and r.doc.get("ok")
        and 1e3 * (r.recv - r.at) <= LATENCY_LIMIT_MS
    )
    return good / len(reqs)


def write_trace(path: Any, segments: list[Segment]) -> None:
    """Client spans, one per request id, as trace-event JSON."""
    events = []
    t0 = min(r.at for s in segments for r in s.reqs if r.at)
    for k, seg in enumerate(segments):
        if not seg.traced:
            continue
        measured = [r for r in seg.reqs if r.id.startswith(f"s{k}-m-")]
        for r in measured:
            events.append({
                "name": "analyze", "cat": "client", "ph": "X",
                "ts": (r.at - t0) * 1e6, "dur": (r.recv - r.at) * 1e6,
                "pid": k, "tid": r.lane,
                "args": {"id": r.id, "tenant": r.tenant, "hot": r.hot,
                         "lateness_ms": 1e3 * (r.sent - r.at),
                         "status": None if r.doc is None else r.doc.get("status")},
            })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"},
                               separators=(",", ":")) + "\n")


def run(seed: int, seconds: float, trace: bool) -> dict:
    use_program()
    inputs = build_inputs(seed, seconds)
    segments = [
        run_segment(warm, measured, traced=trace and k % 2 == 0)
        for k, (warm, measured) in enumerate(inputs["segments"])
    ]
    attempted, failed, notes = verify(segments, inputs["models"])
    measured = [
        [r for r in seg.reqs if r.id.startswith(f"s{k}-m-")]
        for k, seg in enumerate(segments)
    ]
    plain = [k for k, s in enumerate(segments) if not s.traced] or list(range(len(segments)))
    # CPU is pooled over the segments: the total over the answers
    cpu_ms = 1e3 * sum(segments[k].cpu_s for k in plain) / max(
        1, sum(segments[k].answered for k in plain))
    phase_slowdown = mean([segments[k].phase_slowdown for k in plain])
    values: dict[str, Any] = {
        "setup_s": median([segments[k].setup_s for k in plain]),
        "wall_s": median([segments[k].wall_s for k in plain]),
        "peak_rss_mb": median([segments[k].peak_rss_mb for k in plain]),
        "cpu_ms_per_req": cpu_ms / phase_slowdown,
        "slo_frac": median([slo_frac(measured[k]) for k in plain]),
        "setup.import_s": None,
        "setup.inputs_s": None,
        "setup.listen_s": median([s.listen_s for s in segments]),
        "setup.first_req_s": median([s.first_req_s for s in segments]),
    }
    notes.append(
        f"host slowdown x{phase_slowdown:.3f}; cpu_ms_per_req as measured {cpu_ms:.4g}"
    )
    traced = [k for k, s in enumerate(segments) if s.traced]
    if traced:
        layer_docs = [segments[k].layers for k in traced]
        layer_docs += [client_layers(measured[k]) for k in traced]
        merged: dict[str, list] = {}
        for doc in layer_docs:
            for key, v in doc.items():
                merged.setdefault(key, []).append(v)
        for key, vals in merged.items():
            nums = [v for v in vals if isinstance(v, (int, float))]
            values[key] = mean(nums) if len(nums) == len(vals) else None
        if not all(segments[k].layers for k in traced):
            notes.append("stats op lacks the expected histograms: router/shard layers null")
        values["trace.overhead_frac"] = (
            median([segments[k].wall_s for k in traced]) / values["wall_s"] - 1.0
        )
        write_trace(OUT / "traces" / f"cluster_mix-seed{seed}.json", segments)
    return {
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "reps": len(segments),
        "notes": notes,
    }
