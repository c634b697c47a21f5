"""The batch workloads: ``sweep_nc`` and ``catalog``.

Each repetition is a fresh interpreter with an empty result cache, as a
user's run is.  The parent repeats until the run's seconds are spent
and reports medians; each child runs this file with ``--child`` and
prints one JSON document describing its repetition.

Child timeline (one clock shared by parent and child)::

    launch --import--> entry modules --inputs--> inputs + cache dir
           [setup_s = import + inputs]
    host-speed probes
    first call into the program --wall_s--> complete result
    host-speed probes
    output checks (after the clock stops)

The parent divides ``setup_s``, ``wall_s`` and ``cpu_ms_per_req`` of each
repetition by the slowdown its probes measured (see ``common.probe``)
before taking medians.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from typing import Any

from common import (
    BENCH_DIR,
    OUT,
    RECORDED,
    VARIANTS,
    child_env,
    dir_bytes,
    mean,
    median,
    now,
    probe,
    remove_tree,
    fresh_dir,
    slowdown,
    use_program,
)

#: a sweep point or scenario answered within this many seconds of
#: evaluation counts toward ``slo_frac``
LATENCY_LIMIT_S = {"sweep_nc": 0.05, "catalog": 0.5}
#: randomized-family scenarios added to the built-in catalog per run
RANDOMIZED_EXTRAS = 60
CHILD_TIMEOUT_S = 150.0
#: probes taken before, between and after the timed calls
PROBES = 50
#: scenarios per ``run_catalog`` call
CATALOG_SLICE = 24

# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #


def _jitter(rng: random.Random, anchors: tuple[float, ...]) -> tuple[float, ...]:
    """The anchors, each moved by at most 2%."""
    return tuple(round(a * rng.uniform(0.98, 1.02), 4) for a in anchors)


def sweep_specs(variant: int) -> list[Any]:
    """Both paper apps' what-if grids, each plain and packetized.

    BLAST (480 points) scales the slowest GPU stages and the network
    link, the source rate and the source burst; BitW (108 points) varies
    the compression scenario and three stage scalings.  Grid neighbours
    share most curves, which is what the kernel memo exploits.

    A stable point costs about three times an unstable one, so the
    variant only jitters fixed anchor values: every variant has the same
    stable points (BLAST at source scale 0.5 with ``ungapped_ext`` scaled
    past 1; no BitW point is stable), hence the same work.
    """
    from repro.apps.blast import blast_pipeline
    from repro.apps.bump_in_the_wire import bitw_pipeline
    from repro.sweep import Axis, SweepSpec

    rng = random.Random(f"sweep_nc/{variant}")
    blast_axes = [
        Axis("scale:ungapped_ext", _jitter(rng, (0.8, 1.25, 1.75, 2.25))),
        Axis("scale:small_ext", _jitter(rng, (0.8, 1.4, 2.0))),
        Axis("scale:network", _jitter(rng, (0.5, 1.0, 1.5, 2.0))),
        Axis("source_rate_scale", _jitter(rng, (0.5, 1.0))),
        Axis("source_burst_mib", _jitter(rng, (2.0, 8.0, 16.0, 24.0, 32.0))),
    ]
    bitw_axes = [
        Axis("scenario", ("worst", "avg", "best")),
        Axis("scale:compress", _jitter(rng, (0.5, 1.0, 1.5, 2.0))),
        Axis("scale:encrypt", _jitter(rng, (0.5, 1.0, 2.0))),
        Axis("scale:network", _jitter(rng, (0.5, 1.0, 2.0))),
    ]
    return [
        SweepSpec.from_pipeline(pipe, axes, packetized=packetized)
        for pipe, axes in ((blast_pipeline(), blast_axes), (bitw_pipeline(), bitw_axes))
        for packetized in (False, True)
    ]


def catalog_specs(variant: int) -> list[Any]:
    """The built-in catalog plus a seeded randomized batch.

    ``randomized_scenarios`` names its scenarios by depth and index, so a
    batch with another base seed would collide with the built-in
    ``rand-*`` names; the extras get a variant prefix instead.
    """
    import dataclasses

    from repro.scenarios import catalog, randomized_scenarios

    extras = [
        dataclasses.replace(s, name=f"s{variant}-{s.name}")
        for s in randomized_scenarios(RANDOMIZED_EXTRAS, base_seed=variant)
    ]
    return catalog() + extras


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def sweep_digest(results: list[Any]) -> str:
    import hashlib

    nc = [[r.nc for r in res.results] for res in results]
    return hashlib.sha256(canonical(nc).encode()).hexdigest()


def scenario_outcome(result: Any) -> list[Any]:
    """What the recorded reference pins per scenario."""
    conf = result.conformance
    return [
        None if conf is None else bool(conf.get("ok")),
        sorted(c.name for c in result.failures),
        result.error,
    ]


# --------------------------------------------------------------------- #
# child: one repetition in a fresh interpreter
# --------------------------------------------------------------------- #


def child(workload: str, seed: int, traced: bool, t_launch: float, trace_path: str) -> dict:
    import resource

    use_program()
    variant = seed % VARIANTS
    import repro.scenarios  # noqa: F401  (entry modules of the batch CLI)
    import repro.sweep as sweep

    if workload == "catalog":
        import repro.telemetry  # noqa: F401  (conformance replay)
    t_imported = now()
    specs = sweep_specs(variant) if workload == "sweep_nc" else catalog_specs(variant)
    cache_dir = fresh_dir(f"{workload}-cache-")
    cache = sweep.ResultCache(cache_dir)
    t_ready = now()

    spans = None
    if traced:
        from spans import Spans

        spans = Spans()
        spans.install()

    def cpu() -> float:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return ru.ru_utime + ru.ru_stime

    # the timed region is the chunks back to back; probes between them
    # follow the host's speed through the repetition
    probes = [probe() for _ in range(PROBES)]
    taken = list(probes)
    out, wall, wall_ref, cpu_ref = [], 0.0, 0.0, 0.0
    for chunk in _chunks(workload, specs):
        cpu0, w0 = cpu(), now()
        if spans is not None:
            with spans.root():
                out.append(_run(workload, chunk, cache))
        else:
            out.append(_run(workload, chunk, cache))
        dt, dcpu = now() - w0, cpu() - cpu0
        after = [probe() for _ in range(PROBES)]
        factor = slowdown(probes + after)
        probes = after
        taken += after
        wall += dt
        wall_ref += dt / factor
        cpu_ref += dcpu / factor
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = [r for res in out for r in res.results]
    if workload == "sweep_nc":
        check = {
            "digest": sweep_digest(out),
            "points": len(results),
            "errors": sum(1 for r in results if r.error is not None),
        }
    else:
        check = {
            "outcomes": {r.spec.name: scenario_outcome(r) for r in results},
            "checks": sum(res.n_checks for res in out),
        }
    ops = len(results)
    fast = sum(
        1 for r in results if r.error is None and r.elapsed <= LATENCY_LIMIT_S[workload]
    )
    doc: dict[str, Any] = {
        "variant": variant,
        "wall_raw_s": wall,
        "setup_raw_s": t_ready - t_launch,
        # set-up is too short to bracket; it takes the repetition's slowdown
        "setup_s": (t_ready - t_launch) / slowdown(taken),
        "import_s": t_imported - t_launch,
        "inputs_s": t_ready - t_imported,
        "wall_s": wall_ref,
        "cpu_ms_per_req": 1e3 * cpu_ref / ops,
        "slo_frac": fast / ops,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "check": check,
    }
    if spans is not None:
        doc["layers"] = _layer_metrics(spans, cache_dir)
        from pathlib import Path

        spans.write_chrome(Path(trace_path))
    remove_tree(cache_dir)
    return doc


def _chunks(workload: str, specs: list[Any]) -> list[Any]:
    """The workload's calls into the program: one sweep per grid; the
    catalog in slices of :data:`CATALOG_SLICE` scenarios, into one cache."""
    if workload == "sweep_nc":
        return specs
    return [specs[i:i + CATALOG_SLICE] for i in range(0, len(specs), CATALOG_SLICE)]


def _run(workload: str, chunk: Any, cache: Any) -> Any:
    if workload == "sweep_nc":
        import repro.sweep as sweep

        return sweep.run_sweep(chunk, jobs=1, cache=cache)
    import repro.scenarios as scenarios

    return scenarios.run_catalog(chunk, jobs=1, cache=cache)


def _layer_metrics(spans: Any, cache_dir: Any) -> dict[str, Any]:
    from spans import REMAINDER

    self_s = spans.self_times()
    jobs = spans.counts.get("des.jobs", 0)
    des_s = self_s.get("des.simulate", 0.0)
    layers: dict[str, Any] = {
        "nc.analyze_s": self_s.get("nc.analyze", 0.0),
        "nc.analyze_calls": spans.calls("nc.analyze"),
        "nc.memo_hit_ratio": None,
        "nc.memo_lookups": None,
        "nc.fast_path_hits": None,
        "des.simulate_s": des_s,
        "des.calls": spans.calls("des.simulate"),
        "des.jobs": jobs,
        "des.us_per_job": 1e6 * des_s / jobs if jobs else None,
        "conformance.bounds_s": self_s.get("conformance.bounds", 0.0),
        "conformance.replay_s": self_s.get("conformance.replay", 0.0),
        "conformance.checked_points": spans.calls("conformance.replay"),
        "sweep.cache_put_s": self_s.get("sweep.cache_put", 0.0),
        "sweep.cache_get_s": self_s.get("sweep.cache_get", 0.0),
        "sweep.cache_bytes": dir_bytes(cache_dir),
        "sweep.points": spans.calls("sweep.point"),
        "sweep.self_s": sum(self_s.get(n, 0.0) for n in REMAINDER),
        "scenarios.judge_s": self_s.get("scenarios.judge", 0.0),
        "scenarios.checks": spans.counts.get("scenarios.checks", 0),
        "trace.wall_s": sum(
            spans.ends[i] - spans.starts[i] for i, p in enumerate(spans.parents) if p < 0
        ),
        "trace.self_sum_s": sum(self_s.values()),
        "trace.skipped": spans.skipped,
    }
    try:
        from repro.nc.kernel import memo_stats
    except ImportError:
        return layers
    stats = memo_stats()
    lookups = stats.get("hits", 0) + stats.get("misses", 0)
    layers["nc.memo_lookups"] = lookups
    layers["nc.memo_hit_ratio"] = stats.get("hits", 0) / lookups if lookups else None
    layers["nc.fast_path_hits"] = stats.get("fast_path_hits")
    return layers


# --------------------------------------------------------------------- #
# parent
# --------------------------------------------------------------------- #


def spawn(args: list[str], env: "dict[str, str] | None" = None) -> dict:
    """Run one child repetition and return its JSON document."""
    # write back what earlier repetitions left dirty (their caches were
    # just deleted), so that flush does not land in this one's timing
    os.sync()
    t_launch = now()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "batch.py"), *args, repr(t_launch)],
        env=env or child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"benchmark child {args[:3]} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(workload: str, rep: dict, recorded: dict) -> tuple[int, list[str]]:
    """``(failed operations, notes)`` of one repetition against the record."""
    check = rep["check"]
    variant = str(rep["variant"])
    notes: list[str] = []
    if workload == "sweep_nc":
        want = recorded["sweep_nc"].get(variant)
        failed = check["errors"]
        if want is None:
            notes.append(f"no recorded digest for variant {variant}")
            return rep["ops"], notes
        if check["digest"] != want["digest"] or check["points"] != want["points"]:
            notes.append(
                f"NC results differ from the recorded digest of variant {variant}"
            )
            return rep["ops"], notes
        return failed, notes
    ref = recorded["catalog"]
    known = dict(ref["builtin"])
    var = ref["variants"].get(variant)
    if var is None:
        notes.append(f"no recorded verdicts for variant {variant}")
        return rep["ops"], notes
    known.update(var["known"])
    failed = 0
    for name, outcome in check["outcomes"].items():
        want = known.get(name, [True, [], None])
        if outcome == want:
            if want[1]:
                notes.append(f"known defect (recorded): {name} fails {want[1]}")
            continue
        if want[1] and outcome[1] == [] and outcome[2] is None:
            notes.append(f"known defect no longer shows: {name} now passes")
            continue
        failed += 1
        notes.append(f"FAIL {name}: got {outcome}, recorded {want}")
    if check["checks"] != var["checks"]:
        failed += 1
        notes.append(f"check count {check['checks']} != recorded {var['checks']}")
    return failed, notes


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All repetitions of one run; returns the aggregated record."""
    recorded = json.loads(RECORDED.read_text())
    spawn(["--warm", workload, str(seed), "0", "-"])  # compile + page cache
    reps: list[dict] = []
    deadline = now() + seconds
    min_reps = 4 if trace else 3
    while now() < deadline or len(reps) < min_reps:
        traced = trace and len(reps) % 2 == 1
        path = OUT / "traces" / f"{workload}-seed{seed}-rep{len(reps)}.json"
        reps.append(spawn(["--child", workload, str(seed), "1" if traced else "0", str(path)]))
        reps[-1]["traced"] = traced
    failed = 0
    notes: list[str] = []
    for rep in reps:
        f, n = judge(workload, rep, recorded)
        failed += f
        notes.extend(x for x in n if x not in notes)
    plain = [r for r in reps if not r["traced"]]
    values: dict[str, Any] = {
        key: median([r[key] for r in plain])
        for key in ("setup_s", "wall_s", "peak_rss_mb", "cpu_ms_per_req", "slo_frac")
    }
    notes.append(
        f"as measured, before dividing by the host slowdown: setup_s "
        f"{median([r['setup_raw_s'] for r in plain]):.4g}, "
        f"wall_s {median([r['wall_raw_s'] for r in plain]):.4g}"
    )
    values.update({
        "setup.import_s": median([r["import_s"] for r in reps]),
        "setup.inputs_s": median([r["inputs_s"] for r in reps]),
        "setup.listen_s": None,
        "setup.first_req_s": None,
    })
    traced_reps = [r for r in reps if r["traced"]]
    if traced_reps:
        for key in traced_reps[0]["layers"]:
            vals = [r["layers"][key] for r in traced_reps]
            if all(isinstance(v, (int, float)) for v in vals):
                values[key] = vals[0] if len(set(vals)) == 1 else mean(vals)
        values["trace.overhead_frac"] = (
            median([r["wall_s"] for r in traced_reps]) / values["wall_s"] - 1.0
        )
        skipped = traced_reps[0]["layers"]["trace.skipped"]
        if skipped:
            notes.append(f"entry points not found (not traced): {skipped}")
        gap = abs(values["trace.self_sum_s"] - values["trace.wall_s"])
        if not gap <= 1e-6 * max(1.0, values["trace.wall_s"]):
            notes.append(f"span self times miss the traced wall by {gap:.3g} s")
    return {
        "values": values,
        "attempted": sum(r["ops"] for r in reps),
        "failed": failed,
        "reps": len(reps),
        "notes": notes,
    }


def _main(argv: list[str]) -> None:
    mode, workload, seed, traced, path, t_launch = argv
    if mode == "--warm":
        use_program()
        import repro.scenarios  # noqa: F401
        import repro.sweep  # noqa: F401
        import repro.telemetry  # noqa: F401

        print(json.dumps({"warm": True}))
        return
    doc = child(workload, int(seed), traced == "1", float(t_launch), path)
    print(json.dumps(doc, allow_nan=True))


if __name__ == "__main__":
    _main(sys.argv[1:])
