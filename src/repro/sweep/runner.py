"""Sweep execution: evaluate every grid point, in parallel when asked.

Each point runs the network-calculus analysis (and, when the spec says
so, the DES validation) of its pipeline variant.  Evaluation is a pure
function of ``(model, params, options, seed)`` — the model being a
pipeline document or the :class:`~repro.streaming.Pipeline` parsed from
it — which buys three properties at once:

* points pickle cleanly to worker processes;
* results are content-addressable (see :mod:`repro.sweep.cache`);
* serial, parallel, and cached runs produce identical results.

A sweep parses its base document once (:attr:`SweepSpec.pipeline`) and
hands every point the parsed pipeline, which the point changes by its
params (:func:`~repro.sweep.spec.apply_params`); a served request or a
catalog scenario brings a document, which the point parses.  A message
to a worker pickles a model that its points share once.

Per-point seeds derive from the spec's base seed and the point's
parameters via SHA-256, so they are stable across runs, processes, and
grid reorderings — adding an axis does not reshuffle existing points'
draws.

The conformance replay a simulated point runs
(:mod:`repro.telemetry.conformance`) checks every window of the arrival
record in one linear pass, and shares the report's virtual delays with
the point's ``des`` block: they are computed once per point.

``jobs > 1`` runs the points on worker processes of :mod:`repro._worker`,
the protocol ``repro serve`` runs its calls on, in chunks of points.  A
worker that *dies mid-point* (OOM kill, segfault) costs the point it
was running, which is marked failed in the results/manifest, and a new
worker takes the rest of its chunk.  A point that killed a worker never
runs again, in-process least of all: it could kill the sweep.  The
points no worker is left to run (none boots, say), and a point answered
with an exception, run serially.  Either way the run completes and the
manifest records mode ``parallel-degraded``.

:func:`evaluate_points` is that loop — cache lookup, workers, serial
fill-in, store — for any list of points; the scenario catalog
(:func:`repro.scenarios.run_catalog`) runs on it too.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..streaming import Pipeline
from ..units import MiB
from .cache import ResultCache, canonical_json, point_keyer
from .spec import SweepSpec, apply_params

__all__ = [
    "DEFAULT_SIM_WORKLOAD",
    "PointResult",
    "SweepResult",
    "point_seed",
    "evaluate_point",
    "evaluate_points",
    "run_sweep",
]

#: DES workload used when the spec enables simulation but fixes no volume
DEFAULT_SIM_WORKLOAD = 64 * MiB


def point_seed(base_seed: int, params: Mapping[str, Any]) -> int:
    """Deterministic per-point RNG seed.

    Derived from the base seed and the point's parameter assignment
    (not its grid index), so a point keeps its seed when axes are
    added, removed, or reordered.
    """
    digest = hashlib.sha256(
        canonical_json({"base_seed": base_seed, "params": params}).encode()
    ).digest()
    return int.from_bytes(digest[:4], "big")


def _options_dict(spec: SweepSpec) -> dict[str, Any]:
    """The evaluation options that (with model + params) address a result."""
    return {
        "simulate": spec.simulate,
        "packetized": spec.packetized,
        "workload": spec.workload,
        "base_seed": spec.base_seed,
    }


def evaluate_point(
    model: Mapping[str, Any] | Pipeline,
    params: Mapping[str, Any],
    options: Mapping[str, Any],
    seed: int,
) -> dict[str, Any]:
    """Evaluate one grid point; a pure function of its inputs.

    ``model`` is a pipeline document (JSON) or the parsed
    :class:`~repro.streaming.Pipeline` of one; a document is parsed
    here.  Returns a JSON-able dict with ``nc`` (always), ``des``,
    ``metrics`` and ``conformance`` (when simulation is enabled), and
    ``elapsed`` (compute seconds).  Errors are captured per point
    (``{"error": ...}``) so one pathological variant cannot abort a
    whole sweep.

    Conformance scope: stable pipelines are checked against the full
    valid bound set (delay, arrival, backlog, per-queue) — violations
    there falsify a theorem.  Unstable pipelines run envelope-saturating
    here (the sweep simulates the modelled source, not a backpressured
    deployment), where the paper's transient *estimates* do not apply,
    so only the always-sound arrival-curve check runs.
    """
    t0 = time.perf_counter()
    try:
        from ..streaming import analyze, simulate

        if not isinstance(model, Pipeline):
            # through a spec, whose checks (the workload, the stage list)
            # precede the parse: a bad document fails as it always did
            model = SweepSpec(base=model, axes=(), workload=options["workload"]).pipeline
        applied = apply_params(model, params, options["workload"])
        report = analyze(
            applied.pipeline,
            packetized=bool(options["packetized"]),
            workload=applied.workload,
        )
        nc = {
            "throughput_lower_bound": report.throughput_lower_bound,
            "throughput_upper_bound": report.throughput_upper_bound,
            "bottleneck": report.bottleneck,
            "stable": report.stable,
            "delay_bound": report.delay_bound,
            "backlog_bound": report.backlog_bound,
            "total_latency": report.total_latency,
            "effective_burst": report.effective_burst,
            "queueing_prediction": report.queueing_prediction,
            "delay_bound_workload": report.delay_bound_workload,
            "backlog_bound_workload": report.backlog_bound_workload,
        }
        des = metrics_out = conformance = None
        if options["simulate"]:
            from ..telemetry import (
                ConformanceReport,
                check_arrivals,
                evaluate_conformance,
                report_summaries,
                valid_bounds,
            )

            rep = simulate(
                applied.pipeline,
                workload=applied.workload or DEFAULT_SIM_WORKLOAD,
                seed=seed,
                queue_bytes=dict(applied.queue_bytes) or None,
                scenario=applied.scenario,
            )
            vd = rep.observed_virtual_delays(skip_initial_fraction=0.15)
            des = {
                "throughput": rep.throughput,
                "steady_state_throughput": rep.steady_state_throughput,
                "makespan": rep.makespan,
                "output_bytes": rep.output_bytes,
                "max_backlog_bytes": rep.max_backlog_bytes,
                "virtual_delay_min": vd.min,
                "virtual_delay_max": vd.max,
                "bottleneck": rep.bottleneck().name,
            }
            metrics_out = report_summaries(rep)
            delay_b, backlog_b, alpha, est = valid_bounds(applied.pipeline)
            l_max = applied.pipeline.source.packet_bytes
            if est:
                conf = ConformanceReport(
                    applied.pipeline.name,
                    True,
                    (check_arrivals(rep, alpha, l_max),),
                )
            else:
                conf = evaluate_conformance(
                    applied.pipeline.name,
                    rep,
                    delay=delay_b,
                    backlog=backlog_b,
                    alpha=alpha,
                    l_max=l_max,
                    estimates=False,
                )
            conformance = conf.to_dict()
        return {
            "nc": nc,
            "des": des,
            "metrics": metrics_out,
            "conformance": conformance,
            "elapsed": time.perf_counter() - t0,
        }
    except Exception as exc:  # noqa: BLE001 - per-point isolation
        return {"error": f"{type(exc).__name__}: {exc}", "elapsed": time.perf_counter() - t0}


#: one point's evaluation inputs: ``(model, params, options, seed)``
Payload = tuple[
    "Mapping[str, Any] | Pipeline", Mapping[str, Any], Mapping[str, Any], int
]


def evaluate_points(
    payloads: Sequence[Payload],
    keys: Sequence[str],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> tuple[list[dict[str, Any]], list[bool], str]:
    """Answer every point: cache lookup, workers, serial fill-in, store.

    ``keys[i]`` is the cache key of ``payloads[i]``.  Every lookup
    happens before any evaluation and every store after the last one;
    failed points are not stored.  ``jobs > 1`` evaluates the misses on
    worker processes (see :func:`_run_parallel` for what a death costs).
    Returns the outputs and the cached flags, both in input order, and
    the mode (``serial``, ``parallel`` or ``parallel-degraded``).
    """
    raw: dict[int, dict[str, Any]] = {}
    cached: list[bool] = []
    for i, key in enumerate(keys):
        hit = cache.get(key) if cache is not None else None
        cached.append(hit is not None)
        if hit is not None:
            raw[i] = hit
    pending = [i for i, hit in enumerate(cached) if not hit]

    mode = "serial"
    if pending and jobs > 1:
        mode = _run_parallel(raw, pending, payloads, jobs)
    for i in pending:
        if i not in raw:
            raw[i] = evaluate_point(*payloads[i])

    if cache is not None:
        for i in pending:
            if "error" not in raw[i]:
                cache.put(keys[i], raw[i])
    return [raw[i] for i in range(len(keys))], cached, mode


def _run_parallel(
    raw: dict[int, dict[str, Any]],
    pending: Sequence[int],
    payloads: Sequence[Payload],
    jobs: int,
) -> str:
    """Evaluate ``pending`` payloads on worker processes, filling ``raw``.

    ``min(jobs, len(pending))`` workers (:func:`repro._worker.run_batch`)
    take the points in chunks that shrink to one point as the sweep ends.
    A point whose worker died running it is marked failed, which keeps
    it out of the cache and out of this process, where it could kill the
    sweep.  The caller's serial fill-in evaluates the points no worker
    answered, and a point answered with an exception.  Either is mode
    ``parallel-degraded``.
    """
    from .. import _worker

    answers = _worker.run_batch(
        evaluate_point, [payloads[i] for i in pending], min(jobs, len(pending))
    )
    mode = "parallel"
    for j, i in enumerate(pending):
        ok, value = answers.get(j, (False, None))
        if ok:
            raw[i] = value
            continue
        mode = "parallel-degraded"
        if isinstance(value, _worker.WorkerDied):
            raw[i] = {
                "error": "WorkerDied: worker died evaluating this point "
                f"(killed? out of memory?): {value}",
                "elapsed": 0.0,
            }
    return mode


@dataclass(frozen=True)
class PointResult:
    """Outcome of one grid point."""

    index: int
    params: Mapping[str, Any]
    seed: int
    key: str
    cached: bool
    elapsed: float
    nc: Mapping[str, Any] | None
    des: Mapping[str, Any] | None
    metrics: Mapping[str, Any] | None = None
    conformance: Mapping[str, Any] | None = None
    error: str | None = None

    @property
    def conformance_ok(self) -> bool | None:
        """The point's conformance verdict (``None`` when unchecked)."""
        if self.conformance is None:
            return None
        return bool(self.conformance.get("ok"))

    def to_dict(self) -> dict[str, Any]:
        """JSON-able rendering (artifact-store row)."""
        return {
            "index": self.index,
            "params": dict(self.params),
            "seed": self.seed,
            "key": self.key,
            "cached": self.cached,
            "elapsed": self.elapsed,
            "nc": dict(self.nc) if self.nc is not None else None,
            "des": dict(self.des) if self.des is not None else None,
            "metrics": dict(self.metrics) if self.metrics is not None else None,
            "conformance": (
                dict(self.conformance) if self.conformance is not None else None
            ),
            "error": self.error,
        }

    def comparable(self) -> dict[str, Any]:
        """Everything that must match across serial/parallel/cached runs
        (drops timings and cache provenance)."""
        d = self.to_dict()
        d.pop("elapsed")
        d.pop("cached")
        return d


@dataclass
class SweepResult:
    """A completed sweep: every point result plus run-level accounting."""

    pipeline_name: str
    n_points: int
    jobs: int
    mode: str  # "serial" | "parallel" | "parallel-degraded"
    elapsed: float
    cache_hits: int
    cache_misses: int
    results: list[PointResult] = field(default_factory=list)

    @property
    def errors(self) -> list[PointResult]:
        """Points that failed to evaluate."""
        return [r for r in self.results if r.error is not None]

    @property
    def conformance_counts(self) -> tuple[int, int, int]:
        """``(passed, failed, unchecked)`` over the points."""
        verdicts = [r.conformance_ok for r in self.results]
        return (
            sum(1 for v in verdicts if v is True),
            sum(1 for v in verdicts if v is False),
            sum(1 for v in verdicts if v is None),
        )

    def comparable(self) -> list[dict[str, Any]]:
        """Run-invariant view for cross-mode identity checks."""
        return [r.comparable() for r in self.results]

    def summary(self) -> str:
        """Human-readable run accounting."""
        compute = sum(r.elapsed for r in self.results if not r.cached)
        lookups = self.cache_hits + self.cache_misses
        hit_rate = f" ({self.cache_hits / lookups:.0%} hit-rate)" if lookups else ""
        lines = [
            f"== sweep: {self.pipeline_name} ==",
            f"points             {self.n_points}",
            f"mode               {self.mode} (jobs={self.jobs})",
            f"wall time          {self.elapsed:.3f} s",
            f"compute time       {compute:.3f} s (sum over evaluated points)",
            f"cache              {self.cache_hits} hits / {self.cache_misses} misses{hit_rate}",
        ]
        passed, failed, unchecked = self.conformance_counts
        if passed or failed:
            line = f"conformance        {passed} pass / {failed} fail"
            if unchecked:
                line += f" ({unchecked} unchecked)"
            lines.append(line)
        if self.errors:
            lines.append(f"errors             {len(self.errors)} points failed")
        return "\n".join(lines)


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[PointResult], None] | None = None,
) -> SweepResult:
    """Evaluate every point of ``spec``.

    ``jobs > 1`` evaluates cache misses on worker processes; a point
    that kills its worker is marked failed, and the points no worker
    could run are evaluated serially (either is recorded as mode
    ``parallel-degraded``).  Cached points never reach a worker.
    Results come back in grid order regardless of completion order.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    t0 = time.perf_counter()
    options = _options_dict(spec)
    model = dict(spec.base)
    points = list(spec.points())

    seeds = [point_seed(spec.base_seed, p.params) for p in points]
    key_of = point_keyer(model, options)
    keys = [key_of(p.params) for p in points]
    try:
        base: Mapping[str, Any] | Pipeline = spec.pipeline
        # normalized once here; every point's pipeline carries the view
        base.normalized()
    except Exception:  # noqa: BLE001 - each evaluated point reports it
        base = model
    outs, cached, mode = evaluate_points(
        [(base, p.params, options, seed) for p, seed in zip(points, seeds)],
        keys, jobs=jobs, cache=cache,
    )

    results: list[PointResult] = []
    for p, seed, key, out, hit in zip(points, seeds, keys, outs, cached):
        result = PointResult(
            index=p.index,
            params=dict(p.params),
            seed=seed,
            key=key,
            cached=hit,
            elapsed=float(out.get("elapsed", 0.0)),
            nc=out.get("nc"),
            des=out.get("des"),
            metrics=out.get("metrics"),
            conformance=out.get("conformance"),
            error=out.get("error"),
        )
        results.append(result)
        if progress is not None:
            progress(result)

    return SweepResult(
        pipeline_name=str(spec.base.get("name", "?")),
        n_points=len(points),
        jobs=jobs,
        mode=mode,
        elapsed=time.perf_counter() - t0,
        cache_hits=sum(cached),
        cache_misses=len(cached) - sum(cached),
        results=results,
    )
