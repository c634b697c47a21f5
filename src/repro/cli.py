"""Command-line interface: ``repro <command> ...`` / ``python -m repro``.

Commands
--------
``repro analyze {blast,bitw}``
    print the network-calculus analysis summary of a case study;
``repro simulate {blast,bitw} [--workload-mib N] [--seed S] [--trace F] [--metrics]``
    run the discrete-event validation and print its summary;
    ``--trace out.json`` records a Chrome/Perfetto trace-event file
    (load at ``ui.perfetto.dev``), ``--metrics`` appends per-stage
    service-time and latency histograms;
``repro conformance {blast,bitw,file}``
    replay a DES run against the network-calculus bounds and report
    every violation (exit status 1 when any check fails);
``repro reproduce {table1,table2,table3,fig1,fig4,fig10,all} [--csv-dir D]``
    regenerate a paper artifact (tables print paper-vs-ours rows;
    figures print ASCII and optionally write CSV series);
``repro buffers {blast,bitw}``
    print the analytic buffer-allocation plan;
``repro export {blast,bitw} model.json`` / ``repro analyze file --file model.json``
    round-trip pipeline models through JSON;
``repro sweep {blast,bitw,file} --grid AXIS=VALUES ...``
    evaluate a parameter grid of pipeline variants, optionally in
    parallel (``--jobs N``), with a content-addressed result cache
    (``--cache-dir D``) and JSON/CSV artifacts (``--out D``);
``repro serve [--port P] [--workers N] [--slo-ms D] [--rate R] ...``
    run the long-lived analysis service (newline-delimited JSON over
    TCP) with NC-self-applied admission control — see
    :mod:`repro.serve`;
``repro request {ping,analyze,simulate,capacity,stats,shutdown} ...``
    issue one request to a running server and print the response;
``repro cluster {start,status,request} ...``
    the sharded serve tier: N shards behind a digest-affinity router
    with per-tenant NC admission — see :mod:`repro.cluster`;
``repro cache DIR [--stats | --clear | --max-age S]``
    inspect or prune a content-addressed result cache directory;
``repro scenarios {list,run,report}``
    the declarative scenario library: list the built-in catalog, run it
    (model vs. DES vs. closed forms; exit status 1 on any violated
    expectation) with optional parallelism/caching/report artifacts, or
    re-render the markdown report from a previous run's
    ``catalog.json`` — see :mod:`repro.scenarios`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Sequence

from . import __version__
from .units import MiB

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing and docs)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Network-calculus models for heterogeneous streaming applications",
    )
    p.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="network-calculus analysis of a case study")
    pa.add_argument("app", choices=["blast", "bitw", "file"])
    pa.add_argument("--file", type=Path, default=None, help="pipeline model JSON (with app=file)")

    ps = sub.add_parser("simulate", help="discrete-event validation run")
    ps.add_argument("app", choices=["blast", "bitw", "file"])
    ps.add_argument("--file", type=Path, default=None, help="pipeline model JSON (with app=file)")
    ps.add_argument("--workload-mib", type=float, default=None, help="input volume in MiB")
    ps.add_argument("--seed", type=int, default=42)
    ps.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="write a Chrome/Perfetto trace-event JSON of the run",
    )
    ps.add_argument(
        "--trace-capacity",
        type=int,
        default=1_000_000,
        help="trace ring-buffer capacity in events (oldest dropped first)",
    )
    ps.add_argument(
        "--metrics",
        action="store_true",
        help="print per-stage service-time and latency histograms",
    )

    pc = sub.add_parser(
        "conformance", help="check DES observations against the NC bounds"
    )
    pc.add_argument("app", choices=["blast", "bitw", "file"])
    pc.add_argument("--file", type=Path, default=None, help="pipeline model JSON (with app=file)")
    pc.add_argument("--workload-mib", type=float, default=None, help="input volume in MiB")
    pc.add_argument("--seed", type=int, default=42)

    pe = sub.add_parser("export", help="write a case study's model as JSON")
    pe.add_argument("app", choices=["blast", "bitw"])
    pe.add_argument("path", type=Path)

    pr = sub.add_parser("reproduce", help="regenerate a paper table/figure")
    pr.add_argument(
        "artifact",
        choices=["table1", "table2", "table3", "fig1", "fig4", "fig10", "all"],
    )
    pr.add_argument("--csv-dir", type=Path, default=None, help="also write figure CSVs here")

    pb = sub.add_parser("buffers", help="analytic buffer-allocation plan")
    pb.add_argument("app", choices=["blast", "bitw"])
    pb.add_argument("--margin", type=float, default=0.25)

    pw = sub.add_parser("sweep", help="design-space sweep over a parameter grid")
    pw.add_argument("app", choices=["blast", "bitw", "file"])
    pw.add_argument("--file", type=Path, default=None, help="pipeline model JSON (with app=file)")
    pw.add_argument(
        "--grid",
        action="append",
        required=True,
        metavar="AXIS=VALUES",
        help="axis spec, e.g. scale:network=0.5,1,2 or workload_mib=16:64:4 "
        "(repeat for a multi-axis grid)",
    )
    pw.add_argument("--jobs", type=int, default=1, help="worker processes (1 = serial)")
    pw.add_argument("--cache-dir", type=Path, default=None, help="content-addressed result cache")
    pw.add_argument("--out", type=Path, default=None, help="write results.{json,csv} + manifest.json here")
    pw.add_argument("--simulate", action="store_true", help="also run the DES validation per point")
    pw.add_argument("--workload-mib", type=float, default=None, help="workload per point in MiB")
    pw.add_argument("--seed", type=int, default=42, help="base seed for per-point DES seeds")
    pw.add_argument("--packetized", action="store_true", help="use packetized service curves")

    pv = sub.add_parser("serve", help="run the analysis service (NDJSON over TCP)")
    pv.add_argument("--host", default="127.0.0.1")
    pv.add_argument("--port", type=int, default=7421, help="0 picks an ephemeral port")
    pv.add_argument("--workers", type=int, default=None, help="worker processes")
    pv.add_argument(
        "--slo-ms",
        type=float,
        default=None,
        help="delay SLO for admitted requests; with no --rate, the admission "
        "envelope is derived from the calibrated service curve",
    )
    pv.add_argument("--rate", type=float, default=None, help="admission rate R (requests/s)")
    pv.add_argument("--burst", type=float, default=None, help="admission burst b (requests)")
    pv.add_argument(
        "--batch-window-ms",
        type=float,
        default=0.0,
        help="coalesce compatible requests arriving within this window",
    )
    pv.add_argument("--max-batch", type=int, default=16)
    pv.add_argument("--timeout-s", type=float, default=30.0, help="per-request timeout")
    pv.add_argument("--drain-timeout-s", type=float, default=10.0)
    pv.add_argument("--cache-dir", type=Path, default=None, help="content-addressed result cache")
    pv.add_argument(
        "--calibrate", type=int, default=6, help="calibration evaluations at startup"
    )

    pq = sub.add_parser("request", help="issue one request to a running server")
    pq.add_argument(
        "op", choices=["ping", "analyze", "simulate", "capacity", "stats", "shutdown"]
    )
    pq.add_argument("--host", default="127.0.0.1")
    pq.add_argument("--port", type=int, default=7421)
    pq.add_argument("--app", choices=["blast", "bitw"], default=None, help="built-in model")
    pq.add_argument("--file", type=Path, default=None, help="pipeline model JSON")
    pq.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="AXIS=VALUE",
        help="sweep-axis parameter, e.g. scale:network=2 (repeatable)",
    )
    pq.add_argument("--workload-mib", type=float, default=None)
    pq.add_argument("--seed", type=int, default=None)
    pq.add_argument("--packetized", action="store_true")
    pq.add_argument("--timeout", type=float, default=60.0, help="client socket timeout")
    pq.add_argument("--tenant", default=None, help="tenant identity for the request")
    pq.add_argument("--retries", type=int, default=0,
                    help="retry 429/503 responses this many times "
                    "(honors the server's retry_after_s hint)")
    pq.add_argument("--connect-retries", type=int, default=0,
                    help="extra connect attempts with exponential backoff "
                    "(for a server that is still binding)")

    pk = sub.add_parser(
        "cluster", help="sharded serve tier (router + N shards, tenant admission)"
    )
    ksub = pk.add_subparsers(dest="cluster_command", required=True)

    ks = ksub.add_parser("start", help="spawn N shards and run the router")
    ks.add_argument("--host", default="127.0.0.1")
    ks.add_argument("--port", type=int, default=7430, help="router port; 0 = ephemeral")
    ks.add_argument("--shards", type=int, default=2, help="shard processes")
    ks.add_argument("--workers-per-shard", type=int, default=1)
    ks.add_argument("--shard-rate", type=float, default=None,
                    help="per-shard admission rate R (requests/s)")
    ks.add_argument("--shard-burst", type=float, default=None,
                    help="per-shard admission burst b (requests)")
    ks.add_argument("--slo-ms", type=float, default=None,
                    help="per-shard delay SLO for admitted requests")
    ks.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="NAME=RATE,BURST[,SLO_MS]",
        help="pre-register a tenant leaky bucket (repeatable), "
        "e.g. --tenant acme=50,20 --tenant edge=10,5,250",
    )
    ks.add_argument("--cache-dir", type=Path, default=None,
                    help="result caches live under <dir>/<shard-name>")
    ks.add_argument("--calibrate", type=int, default=6,
                    help="per-shard calibration evaluations at startup")
    ks.add_argument("--timeout-s", type=float, default=30.0, help="per-request timeout")
    ks.add_argument("--drain-timeout-s", type=float, default=10.0)
    ks.add_argument("--journal", type=Path, default=None,
                    help="tenant journal path (default: <cache-dir>/"
                         "tenant-journal.ndjson when --cache-dir is set)")
    ks.add_argument("--heartbeat-s", type=float, default=2.0,
                    help="supervisor heartbeat interval")
    ks.add_argument("--no-supervise", action="store_true",
                    help="disable shard supervision (no restart/rejoin)")

    kt = ksub.add_parser("status", help="rolled-up /capacity of a running cluster")
    kt.add_argument("--host", default="127.0.0.1")
    kt.add_argument("--port", type=int, default=7430)
    kt.add_argument("--stats", action="store_true",
                    help="show /stats (counters) instead of /capacity")
    kt.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                    help="poll /stats every SECONDS, printing one health "
                         "line (epoch, in-flight, down, restarts, unhealthy "
                         "shards, journal) per tick")

    kq = ksub.add_parser("request", help="issue one request through the router")
    kq.add_argument(
        "op",
        choices=["ping", "analyze", "simulate", "capacity", "stats",
                 "register-tenant", "tenants", "shutdown"],
    )
    kq.add_argument("--host", default="127.0.0.1")
    kq.add_argument("--port", type=int, default=7430)
    kq.add_argument("--app", choices=["blast", "bitw"], default=None, help="built-in model")
    kq.add_argument("--file", type=Path, default=None, help="pipeline model JSON")
    kq.add_argument("--param", action="append", default=[], metavar="AXIS=VALUE",
                    help="sweep-axis parameter (repeatable)")
    kq.add_argument("--workload-mib", type=float, default=None)
    kq.add_argument("--seed", type=int, default=None)
    kq.add_argument("--packetized", action="store_true")
    kq.add_argument("--timeout", type=float, default=60.0, help="client socket timeout")
    kq.add_argument("--tenant", default=None, help="tenant identity")
    kq.add_argument("--rate", type=float, default=None,
                    help="register-tenant: sustained rate R (requests/s)")
    kq.add_argument("--burst", type=float, default=None,
                    help="register-tenant: burst b (requests)")
    kq.add_argument("--slo-ms", type=float, default=None,
                    help="register-tenant: per-tenant delay SLO")
    kq.add_argument("--retries", type=int, default=0,
                    help="retry 429/503 responses this many times")
    kq.add_argument("--connect-retries", type=int, default=4,
                    help="extra connect attempts with exponential backoff")

    pn = sub.add_parser(
        "scenarios", help="declarative scenario library (model vs DES vs closed forms)"
    )
    nsub = pn.add_subparsers(dest="scenarios_command", required=True)

    nl = nsub.add_parser("list", help="list catalog scenarios")
    nl.add_argument("--family", choices=["classic", "randomized", "adversarial", "multiflow"],
                    default=None, help="restrict to one generator family")
    nl.add_argument("--quick", action="store_true", help="the CI smoke subset")

    nr = nsub.add_parser("run", help="run scenarios and judge expectations")
    sel = nr.add_mutually_exclusive_group()
    sel.add_argument("--all", action="store_true",
                     help="the full built-in catalog (default)")
    sel.add_argument("--quick", action="store_true",
                     help="the CI smoke subset (first scenarios of each family)")
    sel.add_argument("--family", choices=["classic", "randomized", "adversarial", "multiflow"],
                     default=None, help="one generator family")
    sel.add_argument("--name", action="append", default=None, metavar="SCENARIO",
                     help="one catalog scenario by name (repeatable)")
    nr.add_argument("--file", action="append", default=[], type=Path,
                    metavar="TOML", help="user-authored scenario file (repeatable, "
                    "combines with the selection)")
    nr.add_argument("--jobs", type=int, default=1, help="worker processes (1 = serial)")
    nr.add_argument("--cache-dir", type=Path, default=None,
                    help="content-addressed result cache")
    nr.add_argument("--out", type=Path, default=None,
                    help="write catalog.{json,md} + per-scenario pages here")

    np_ = nsub.add_parser("report", help="re-render markdown from catalog.json")
    np_.add_argument("path", type=Path,
                     help="catalog.json (or the directory containing it)")
    np_.add_argument("--out", type=Path, default=None,
                     help="rewrite the markdown pages here (default: print)")

    ph = sub.add_parser("cache", help="inspect or prune a result-cache directory")
    ph.add_argument("dir", type=Path, help="cache directory (as given to --cache-dir)")
    ph.add_argument("--stats", action="store_true", help="print size/age stats (default)")
    ph.add_argument("--clear", action="store_true", help="remove every entry")
    ph.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="prune entries older than this many seconds",
    )
    return p


def _pipeline_for(app: str):
    if app == "blast":
        from .apps.blast import blast_pipeline

        return blast_pipeline()
    from .apps.bump_in_the_wire import bitw_pipeline

    return bitw_pipeline()


def _require_file(args: argparse.Namespace) -> "Path":
    if args.file is None:
        raise SystemExit("app 'file' requires --file <model.json>")
    return args.file


def _load_model_file(path: Path):
    """Load a pipeline model JSON, turning malformed input into a clean
    CLI error instead of a traceback."""
    from .streaming import load_pipeline

    try:
        return load_pipeline(path)
    except FileNotFoundError:
        raise SystemExit(f"model file not found: {path}")
    except ValueError as exc:
        raise SystemExit(f"invalid model file {path}: {exc}")


def _cmd_analyze(args: argparse.Namespace) -> str:
    if args.app == "file":
        from .streaming import analyze

        return analyze(_load_model_file(_require_file(args)), packetized=False).summary()
    if args.app == "blast":
        from .apps.blast import blast_analysis

        return blast_analysis().summary()
    from .apps.bump_in_the_wire import bitw_analysis

    return bitw_analysis().summary()


def _simulate_probe(args: argparse.Namespace):
    """``(probe, tracer, metrics)`` for the simulate flags (all optional)."""
    tracer = metrics = None
    if args.trace is not None:
        from .telemetry import Tracer

        tracer = Tracer(capacity=args.trace_capacity)
    if args.metrics:
        from .telemetry import SimMetrics

        metrics = SimMetrics()
    probes = [p for p in (tracer, metrics) if p is not None]
    if not probes:
        return None, None, None
    if len(probes) == 1:
        return probes[0], tracer, metrics
    from .telemetry import MultiProbe

    return MultiProbe(probes), tracer, metrics


def _cmd_simulate(args: argparse.Namespace) -> str:
    probe, tracer, metrics = _simulate_probe(args)
    if args.app == "file":
        from .streaming import simulate

        workload = (args.workload_mib or 64.0) * MiB
        rep = simulate(
            _load_model_file(_require_file(args)),
            workload=workload,
            seed=args.seed,
            probe=probe,
        )
    elif args.app == "blast":
        from .apps.blast import blast_simulation

        workload = (args.workload_mib or 256.0) * MiB
        rep = blast_simulation(workload=workload, seed=args.seed, probe=probe)
    else:
        from .apps.bump_in_the_wire import bitw_simulation

        workload = (args.workload_mib or 4.0) * MiB
        rep = bitw_simulation(workload=workload, seed=args.seed, probe=probe)
    vd = rep.observed_virtual_delays(skip_initial_fraction=0.15)
    extra = (
        f"\nobserved virtual delay   "
        f"{vd.min * 1e3:.4g} ms .. {vd.max * 1e3:.4g} ms"
    )
    out = rep.summary() + extra
    if metrics is not None:
        out += "\n\n" + metrics.summary()
    if tracer is not None:
        path = tracer.write(args.trace)
        dropped = f", {tracer.dropped} dropped" if tracer.dropped else ""
        out += f"\n[trace: {tracer.emitted} events{dropped} -> {path}]"
    return out


def _cmd_conformance(args: argparse.Namespace) -> tuple[str, int]:
    if args.app == "file":
        from .telemetry import run_conformance

        workload = (args.workload_mib or 64.0) * MiB
        report = run_conformance(
            _load_model_file(_require_file(args)), workload=workload, seed=args.seed
        )
    elif args.app == "blast":
        from .apps.blast import blast_conformance

        workload = (args.workload_mib or 256.0) * MiB
        report = blast_conformance(workload=workload, seed=args.seed)
    else:
        from .apps.bump_in_the_wire import bitw_conformance

        workload = (args.workload_mib or 4.0) * MiB
        report = bitw_conformance(workload=workload, seed=args.seed)
    return report.summary(), 0 if report.ok else 1


def _cmd_reproduce(args: argparse.Namespace) -> str:
    from . import reproduction as R

    out: list[str] = []
    artifacts = (
        ["table1", "table2", "table3", "fig1", "fig4", "fig10"]
        if args.artifact == "all"
        else [args.artifact]
    )
    for art in artifacts:
        if art == "table1":
            out.append(R.format_rows("Table 1 — BLAST throughput", R.table1_rows()))
            out.append(R.format_rows("§4.2 observations — BLAST", R.blast_observation_rows()))
        elif art == "table2":
            out.append(R.format_rows("Table 2 — stage throughput (avg)", R.table2_rows()))
        elif art == "table3":
            out.append(R.format_rows("Table 3 — bump-in-the-wire throughput", R.table3_rows()))
            out.append(R.format_rows("§5 observations — BitW", R.bitw_observation_rows()))
        else:
            from .viz import figure1, figure4, figure10

            fig = {"fig1": figure1, "fig4": figure4, "fig10": figure10}[art]()
            out.append(fig.ascii())
            if args.csv_dir is not None:
                args.csv_dir.mkdir(parents=True, exist_ok=True)
                path = fig.write_csv(args.csv_dir / f"{fig.name}.csv")
                out.append(f"[csv written to {path}]")
    return "\n\n".join(out)


def _cmd_export(args: argparse.Namespace) -> str:
    from .streaming import save_pipeline

    path = save_pipeline(_pipeline_for(args.app), args.path)
    return f"model written to {path}"


def _cmd_sweep(args: argparse.Namespace) -> str:
    from .sweep import (
        SweepPoint,
        SweepSpec,
        parse_grid_arg,
        run_sweep,
        write_artifacts,
    )
    from .units import format_rate, format_seconds

    if args.app == "file":
        pipe = _load_model_file(_require_file(args))
    else:
        pipe = _pipeline_for(args.app)
    try:
        axes = [parse_grid_arg(g) for g in args.grid]
        spec = SweepSpec.from_pipeline(
            pipe,
            axes,
            simulate=args.simulate,
            packetized=args.packetized,
            workload=(args.workload_mib * MiB) if args.workload_mib else None,
            base_seed=args.seed,
        )
    except ValueError as exc:
        raise SystemExit(f"bad sweep grid: {exc}")
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    with _open_cache(args.cache_dir) as cache:
        result = run_sweep(spec, jobs=args.jobs, cache=cache)

    lines = [result.summary(), "", "points:"]
    for r in result.results:
        label = SweepPoint(r.index, r.params).label() or "(base)"
        if r.error is not None:
            lines.append(f"  [{r.index:>3}] {label:<48} ERROR {r.error}")
            continue
        row = (
            f"  [{r.index:>3}] {label:<48} "
            f"lb {format_rate(r.nc['throughput_lower_bound']):>14}  "
            f"d<= {format_seconds(r.nc['delay_bound']):>10}"
        )
        if r.des is not None:
            row += f"  des {format_rate(r.des['throughput']):>14}"
        if r.conformance_ok is not None:
            row += "  conf " + ("PASS" if r.conformance_ok else "FAIL")
        if r.cached:
            row += "  (cached)"
        lines.append(row)
    if result.errors:
        lines.append(f"\n{len(result.errors)} point(s) failed")
    if args.out is not None:
        paths = write_artifacts(result, spec, args.out)
        lines.append("\nartifacts: " + ", ".join(str(p) for p in paths.values()))
    return "\n".join(lines)


def _cmd_serve(args: argparse.Namespace) -> tuple[str, int]:
    from .serve import ServeConfig
    from .serve.server import run

    if args.timeout_s <= 0:
        raise SystemExit("--timeout-s must be > 0")
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        slo_s=args.slo_ms / 1e3 if args.slo_ms is not None else None,
        rate=args.rate,
        burst=args.burst,
        batch_window_s=args.batch_window_ms / 1e3,
        max_batch=args.max_batch,
        request_timeout_s=args.timeout_s,
        drain_timeout_s=args.drain_timeout_s,
        cache_dir=str(args.cache_dir) if args.cache_dir is not None else None,
        calibrate=args.calibrate,
    )
    try:
        status = run(config)
    except ValueError as exc:
        raise SystemExit(f"bad serve configuration: {exc}")
    return "", status  # run() prints its own listening/drain lines


def _parse_request_params(pairs: "list[str]") -> dict:
    params: dict = {}
    for pair in pairs:
        axis, sep, value = pair.partition("=")
        if not sep or not axis:
            raise SystemExit(f"bad --param {pair!r} (expected AXIS=VALUE)")
        try:
            params[axis] = float(value)
        except ValueError:
            params[axis] = value  # string-valued axes (e.g. scenario=worst)
    return params


def _cmd_request(args: argparse.Namespace) -> tuple[str, int]:
    import json

    from .serve import ServeClient
    from .streaming import pipeline_to_dict

    model = None
    if args.op in ("analyze", "simulate"):
        if args.file is not None:
            model = pipeline_to_dict(_load_model_file(args.file))
        elif args.app is not None:
            model = pipeline_to_dict(_pipeline_for(args.app))
        else:
            raise SystemExit(f"op {args.op!r} needs --app or --file for the model")
    options: dict = {}
    if args.workload_mib is not None:
        options["workload_mib"] = args.workload_mib
    if args.seed is not None:
        options["seed"] = args.seed
    if args.packetized:
        options["packetized"] = True
    try:
        with ServeClient(
            args.host, args.port, timeout=args.timeout,
            connect_retries=args.connect_retries,
        ) as client:
            response = client.request(
                args.op,
                model=model,
                params=_parse_request_params(args.param) or None,
                options=options or None,
                tenant=args.tenant,
                retries=args.retries,
            )
    except (ConnectionError, OSError) as exc:
        raise SystemExit(f"cannot reach server at {args.host}:{args.port}: {exc}")
    return json.dumps(response, indent=1), 0 if response.get("ok") else 1


def _parse_tenant_flags(pairs: "list[str]") -> "list[tuple[str, float, float, float | None]]":
    """``NAME=RATE,BURST[,SLO_MS]`` flags → (name, rate, burst, slo_s) rows."""
    tenants = []
    for pair in pairs:
        name, sep, spec = pair.partition("=")
        parts = spec.split(",") if sep else []
        if not name or len(parts) not in (2, 3):
            raise SystemExit(
                f"bad --tenant {pair!r} (expected NAME=RATE,BURST[,SLO_MS])"
            )
        try:
            rate, burst = float(parts[0]), float(parts[1])
            slo_s = float(parts[2]) / 1e3 if len(parts) == 3 else None
        except ValueError:
            raise SystemExit(f"bad --tenant {pair!r}: non-numeric rate/burst/slo")
        tenants.append((name, rate, burst, slo_s))
    return tenants


def _cluster_watch(args: argparse.Namespace) -> tuple[str, int]:
    """``repro cluster status --watch S``: one health line per poll.

    Each tick reconnects (a bounced router is the interesting case) and
    prints ring epoch, in-flight count, down set, restart totals,
    shards the supervisor does not report up, and journal size.
    Ctrl-C exits 0 — watching is not a failure, and neither is the
    downstream end of a pipe closing (`--watch | head`).
    """
    import time as _time

    from .serve import ServeClient

    interval = max(0.1, float(args.watch))
    try:
        while True:
            try:
                with ServeClient(args.host, args.port, connect_retries=2) as client:
                    response = client.request("stats")
                result = response.get("result") or {}
                down = result.get("down") or []
                sup = result.get("supervisor") or {}
                states = {
                    name: doc["state"]
                    for name, doc in (sup.get("shards") or {}).items()
                    if doc["state"] != "up"
                }
                journal = result.get("journal") or {}
                line = (
                    f"epoch={result.get('ring_epoch')} "
                    f"inflight={result.get('inflight')} "
                    f"down={','.join(down) if down else '-'} "
                    f"restarts={sup.get('restarts_total', 0)} "
                    f"unhealthy={states if states else '-'} "
                    f"journal={journal.get('records', 0)}rec"
                )
            except (ConnectionError, OSError) as exc:
                line = f"unreachable ({type(exc).__name__})"
            print(f"[{_time.strftime('%H:%M:%S')}] {line}", flush=True)
            _time.sleep(interval)
    except KeyboardInterrupt:
        return "", 0
    except BrokenPipeError:
        # downstream closed (e.g. `--watch | head`); park stdout on
        # devnull so the interpreter's exit flush stays silent too
        import os as _os
        import sys as _sys

        _os.dup2(_os.open(_os.devnull, _os.O_WRONLY), _sys.stdout.fileno())
        return "", 0


def _cmd_cluster(args: argparse.Namespace) -> tuple[str, int]:
    import json

    from .serve import ServeClient

    if args.cluster_command == "start":
        from .cluster import ClusterConfig
        from .cluster.orchestrator import run as cluster_run

        if args.timeout_s <= 0:
            raise SystemExit("--timeout-s must be > 0")
        config = ClusterConfig(
            shards=args.shards,
            workers_per_shard=args.workers_per_shard,
            host=args.host,
            port=args.port,
            shard_rate=args.shard_rate,
            shard_burst=args.shard_burst,
            slo_s=args.slo_ms / 1e3 if args.slo_ms is not None else None,
            request_timeout_s=args.timeout_s,
            drain_timeout_s=args.drain_timeout_s,
            cache_dir=str(args.cache_dir) if args.cache_dir is not None else None,
            calibrate=args.calibrate,
            tenants=_parse_tenant_flags(args.tenant),
            journal_path=str(args.journal) if args.journal is not None else None,
            supervise=not args.no_supervise,
            heartbeat_interval_s=args.heartbeat_s,
        )
        try:
            status = cluster_run(config)
        except ValueError as exc:
            raise SystemExit(f"bad cluster configuration: {exc}")
        return "", status  # run() prints its own listening/drain lines

    if args.cluster_command == "status":
        if args.watch is not None:
            return _cluster_watch(args)
        op = "stats" if args.stats else "capacity"
        try:
            with ServeClient(args.host, args.port, connect_retries=2) as client:
                response = client.request(op)
        except (ConnectionError, OSError) as exc:
            raise SystemExit(f"cannot reach router at {args.host}:{args.port}: {exc}")
        return json.dumps(response, indent=1), 0 if response.get("ok") else 1

    # request
    from .streaming import pipeline_to_dict

    op = args.op.replace("-", "_")
    model = None
    if op in ("analyze", "simulate"):
        if args.file is not None:
            model = pipeline_to_dict(_load_model_file(args.file))
        elif args.app is not None:
            model = pipeline_to_dict(_pipeline_for(args.app))
        else:
            raise SystemExit(f"op {args.op!r} needs --app or --file for the model")
    options: dict = {}
    if op == "register_tenant":
        if args.tenant is None or args.rate is None or args.burst is None:
            raise SystemExit("register-tenant needs --tenant, --rate and --burst")
        options = {"rate": args.rate, "burst": args.burst}
        if args.slo_ms is not None:
            options["slo_ms"] = args.slo_ms
    else:
        if args.workload_mib is not None:
            options["workload_mib"] = args.workload_mib
        if args.seed is not None:
            options["seed"] = args.seed
        if args.packetized:
            options["packetized"] = True
    try:
        with ServeClient(
            args.host, args.port, timeout=args.timeout,
            connect_retries=args.connect_retries,
        ) as client:
            response = client.request(
                op,
                model=model,
                params=_parse_request_params(args.param) or None,
                options=options or None,
                tenant=args.tenant,
                retries=args.retries,
            )
    except (ConnectionError, OSError) as exc:
        raise SystemExit(f"cannot reach router at {args.host}:{args.port}: {exc}")
    return json.dumps(response, indent=1), 0 if response.get("ok") else 1


def _cmd_cache(args: argparse.Namespace) -> tuple[str, int]:
    from .sweep import ResultCache
    from .sweep.cache import STORE_FILE
    from .units import format_seconds

    # maintenance never creates a store: only an existing one qualifies
    if not (args.dir / STORE_FILE).is_file():
        raise SystemExit(f"not a cache directory: {args.dir}")
    if args.clear and args.max_age is not None:
        raise SystemExit("--clear and --max-age are mutually exclusive")
    if args.max_age is not None and args.max_age < 0:
        raise SystemExit("--max-age must be >= 0")
    lines: list[str] = []
    with ResultCache(args.dir) as cache:
        if args.clear:
            lines.append(f"removed {cache.clear()} entries")
        elif args.max_age is not None:
            lines.append(f"removed {cache.prune(max_age_s=args.max_age)} entries")
        stats = cache.stats()
    lines += [
        f"== cache: {stats['directory']} ==",
        f"entries            {stats['entries']}",
        f"size               {stats['bytes'] / 1024:.1f} KiB",
    ]
    if stats["oldest_age_s"] is not None:
        lines.append(f"oldest entry       {format_seconds(stats['oldest_age_s'])} ago")
        lines.append(f"newest entry       {format_seconds(stats['newest_age_s'])} ago")
    return "\n".join(lines), 0


def _open_cache(directory: "Path | None") -> Any:
    """The result cache under ``directory`` as a context that closes it,
    or a null context yielding ``None`` when no directory was given."""
    from contextlib import nullcontext

    from .sweep import ResultCache

    return ResultCache(directory) if directory is not None else nullcontext()


def _scenario_selection(args: argparse.Namespace) -> list:
    """Resolve the ``scenarios run``/``list`` selection flags to specs."""
    from . import scenarios as S

    if getattr(args, "quick", False):
        specs = S.quick_catalog()
    elif getattr(args, "family", None):
        specs = {
            "classic": S.classic_scenarios,
            "randomized": S.randomized_scenarios,
            "adversarial": S.adversarial_scenarios,
            "multiflow": S.multiflow_scenarios,
        }[args.family]()
    elif getattr(args, "name", None):
        by_name = {s.name: s for s in S.catalog()}
        missing = [n for n in args.name if n not in by_name]
        if missing:
            raise SystemExit(
                f"unknown scenario(s): {', '.join(missing)} "
                "(see `repro scenarios list`)"
            )
        specs = [by_name[n] for n in args.name]
    else:
        specs = S.catalog()
    for path in getattr(args, "file", []) or []:
        try:
            specs.append(S.load_scenario(path))
        except FileNotFoundError:
            raise SystemExit(f"scenario file not found: {path}")
        except ValueError as exc:
            raise SystemExit(f"invalid scenario file: {exc}")
    return specs


def _cmd_scenarios(args: argparse.Namespace) -> "tuple[str, int]":
    from . import scenarios as S
    from .units import format_rate

    if args.scenarios_command == "list":
        rows = []
        for s in _scenario_selection(args):
            rows.append(
                f"  {s.name:<32} {s.family:<12} stages={s.n_stages:<3}"
                f" src={format_rate(s.pipeline['source']['rate']):>14}"
                f"  {s.description}"
            )
        return f"{len(rows)} scenarios:\n" + "\n".join(rows), 0

    if args.scenarios_command == "report":
        path = args.path / "catalog.json" if args.path.is_dir() else args.path
        try:
            data = S.load_catalog_json(path)
        except FileNotFoundError:
            raise SystemExit(f"catalog report not found: {path}")
        except ValueError as exc:
            raise SystemExit(f"invalid catalog report: {exc}")
        text = S.render_catalog_markdown(data)
        if args.out is not None:
            from ._fsutil import atomic_write_text

            atomic_write_text(args.out / "catalog.md", text + "\n")
            for doc in data["scenarios"]:
                atomic_write_text(
                    args.out / "scenarios" / f"{doc['name']}.md",
                    S.render_scenario_markdown(doc) + "\n",
                )
            return f"report rewritten under {args.out}", 0
        return text, 0

    # run
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    specs = _scenario_selection(args)
    with _open_cache(args.cache_dir) as cache:
        result = S.run_catalog(specs, jobs=args.jobs, cache=cache)
    lines = [result.summary()]
    if args.out is not None:
        path = S.write_reports(result, args.out)
        lines.append(f"artifacts: {path.parent}/catalog.{{json,md}} + scenarios/")
    return "\n".join(lines), 0 if result.ok else 1


def _cmd_buffers(args: argparse.Namespace) -> str:
    from .streaming import size_buffers

    pipe = _pipeline_for(args.app)
    workload = 256 * MiB if args.app == "blast" else 8 * MiB
    return size_buffers(pipe, margin=args.margin, workload=workload).summary()


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit status.

    Handlers return either the text to print or ``(text, status)`` —
    the conformance verb reports violations through the exit status.
    """
    args = build_parser().parse_args(argv)
    handler = {
        "analyze": _cmd_analyze,
        "simulate": _cmd_simulate,
        "conformance": _cmd_conformance,
        "reproduce": _cmd_reproduce,
        "buffers": _cmd_buffers,
        "export": _cmd_export,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "request": _cmd_request,
        "cluster": _cmd_cluster,
        "cache": _cmd_cache,
        "scenarios": _cmd_scenarios,
    }[args.command]
    out = handler(args)
    text, status = out if isinstance(out, tuple) else (out, 0)
    if text:
        print(text)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
