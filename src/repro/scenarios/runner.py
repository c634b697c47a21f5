"""Scenario execution: the model-vs-DES-vs-closed-form cross-check loop.

Each scenario evaluates through the *sweep engine's* pure point
evaluator (:func:`repro.sweep.evaluate_point`) — a scenario is exactly
a one-point sweep, so it inherits, unchanged: the content-addressed
result cache (same :func:`~repro.sweep.cache.point_key` addressing),
the per-point SHA-256 seed derivation, the process pool, the batched
curve evaluation of the conformance replay
(:func:`repro.nc.kernel.eval_batch`), and the graceful serial
fallback.  Warm catalog runs are therefore pure cache reads.

On top of that this module adds the *judge*: every
:class:`~repro.scenarios.spec.Expectations` field becomes a
:class:`Check` comparing the library's output against the scenario's
hand-derived closed form under the :mod:`repro.nc.tolerance` EPS
policy.  The queueing-theory expectations (M/M/1, M/G/1
Pollaczek-Khinchine, tandem Little's-law backlog) are recomputed here
from the normalized pipeline via :mod:`repro.queueing`, so the
comparison crosses three independent code paths: generator formulas,
the NC analysis stack, and the queueing baselines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..nc.tolerance import EPS, close
from ..queueing import MM1, TandemQueueingModel, mg1_from_uniform_service
from ..sweep import ResultCache, evaluate_point, point_key, point_seed
from .spec import ScenarioSpec

__all__ = [
    "Check",
    "ScenarioResult",
    "CatalogResult",
    "evaluate_scenario",
    "judge_scenario",
    "run_catalog",
]

#: expectation fields recomputed through :mod:`repro.queueing` (the
#: rest come straight from the NC analysis payload)
_QUEUEING_FIELDS = frozenset({
    "mm1_mean_jobs", "mm1_mean_sojourn", "mm1_mean_wait",
    "mg1_mean_wait", "tandem_backlog_bytes",
})


def scenario_payload(
    spec: ScenarioSpec,
) -> tuple[dict[str, Any], dict[str, Any], dict[str, Any]]:
    """The ``(model, params, options)`` triple addressing one scenario.

    This is the scenario's full identity under the sweep cache: two
    scenarios with the same pipeline document, data scenario, workload,
    seed and packetization share a cache entry — by construction, not
    by coincidence.
    """
    model = dict(spec.pipeline)
    params = {"scenario": spec.data_scenario}
    options = {
        "simulate": spec.simulate,
        "packetized": spec.packetized,
        "workload": spec.workload,
        "base_seed": spec.seed,
    }
    return model, params, options


# --------------------------------------------------------------------- #
# judging
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Check:
    """One expectation compared against one computed value."""

    name: str
    expected: Any
    actual: Any
    ok: bool
    tolerance: float | None = None  # None for boolean checks

    def describe(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        if self.tolerance is None:
            return f"{self.name}: expected {self.expected}, got {self.actual} [{verdict}]"
        return (
            f"{self.name}: expected {self.expected:.9g}, got "
            f"{float(self.actual):.9g} (tol {self.tolerance:g}) [{verdict}]"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "ok": self.ok,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's evaluation: raw payloads plus the judged checks."""

    spec: ScenarioSpec
    checks: tuple[Check, ...]
    key: str
    cached: bool
    elapsed: float
    nc: Mapping[str, Any] | None = None
    des: Mapping[str, Any] | None = None
    conformance: Mapping[str, Any] | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True when evaluation succeeded and every check passed."""
        return self.error is None and all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able rendering (report artifact row)."""
        return {
            "name": self.spec.name,
            "family": self.spec.family,
            "description": self.spec.description,
            "ok": self.ok,
            "key": self.key,
            "cached": self.cached,
            "elapsed": self.elapsed,
            "checks": [c.to_dict() for c in self.checks],
            "nc": dict(self.nc) if self.nc is not None else None,
            "des": dict(self.des) if self.des is not None else None,
            "conformance": (
                dict(self.conformance) if self.conformance is not None else None
            ),
            "error": self.error,
        }


def _queueing_actuals(spec: ScenarioSpec, wanted: set[str]) -> dict[str, float]:
    """Recompute the requested queueing-theory quantities from the
    normalized pipeline (bottleneck-by-average-rate station)."""
    pipe = spec.build_pipeline()
    norm = pipe.normalized()
    bn = min(norm, key=lambda s: s.rate_avg)
    lam = pipe.source.rate / bn.job_bytes
    out: dict[str, float] = {}
    if wanted & {"mm1_mean_jobs", "mm1_mean_sojourn", "mm1_mean_wait"}:
        q = MM1(lam, bn.rate_avg / bn.job_bytes)
        out["mm1_mean_jobs"] = q.mean_jobs_in_system
        out["mm1_mean_sojourn"] = q.mean_sojourn_time
        out["mm1_mean_wait"] = q.mean_waiting_time
    if "mg1_mean_wait" in wanted:
        q = mg1_from_uniform_service(
            lam, bn.job_bytes / bn.rate_max, bn.job_bytes / bn.rate_min
        )
        out["mg1_mean_wait"] = q.mean_waiting_time
    if "tandem_backlog_bytes" in wanted:
        model = TandemQueueingModel.from_rates(
            [(s.name, s.rate_avg, s.job_bytes) for s in norm],
            input_rate=pipe.source.rate,
        )
        # load_fraction=1.0 is exact when the roofline is source-limited
        out["tandem_backlog_bytes"] = model.mean_backlog_bytes(load_fraction=1.0)
    return out


def judge_scenario(
    spec: ScenarioSpec,
    payload: Mapping[str, Any],
    *,
    key: str,
    cached: bool,
) -> ScenarioResult:
    """Turn one raw evaluation payload into a judged result."""
    error = payload.get("error")
    checks: list[Check] = []
    if error is None:
        nc = payload["nc"]
        exp = spec.expect
        eps = exp.rtol if exp.rtol is not None else EPS
        if exp.stable is not None:
            actual = bool(nc["stable"])
            checks.append(Check("stable", exp.stable, actual, actual == exp.stable))
        if exp.conformance is not None:
            conf = payload.get("conformance") or {}
            actual = bool(conf.get("ok", False))
            checks.append(
                Check("conformance", exp.conformance, actual, actual == exp.conformance)
            )
        forms = exp.closed_forms()
        q_wanted = set(forms) & _QUEUEING_FIELDS
        q_actual = _queueing_actuals(spec, q_wanted) if q_wanted else {}
        for name in sorted(forms):
            expected = forms[name]
            actual = q_actual[name] if name in _QUEUEING_FIELDS else nc[name]
            checks.append(
                Check(name, expected, actual, close(expected, float(actual), eps), eps)
            )
    return ScenarioResult(
        spec=spec,
        checks=tuple(checks),
        key=key,
        cached=cached,
        elapsed=float(payload.get("elapsed", 0.0)),
        nc=payload.get("nc"),
        des=payload.get("des"),
        conformance=payload.get("conformance"),
        error=error,
    )


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #


def evaluate_scenario(
    spec: ScenarioSpec, *, cache: ResultCache | None = None
) -> ScenarioResult:
    """Evaluate and judge one scenario (serial, cache-aware)."""
    model, params, options = scenario_payload(spec)
    key = point_key(model, params, options)
    hit = cache.get(key) if cache is not None else None
    if hit is not None:
        return judge_scenario(spec, hit, key=key, cached=True)
    out = evaluate_point(model, params, options, point_seed(spec.seed, params))
    if cache is not None and "error" not in out:
        cache.put(key, out)
    return judge_scenario(spec, out, key=key, cached=False)


@dataclass
class CatalogResult:
    """A completed catalog run: judged results plus run accounting."""

    results: list[ScenarioResult] = field(default_factory=list)
    elapsed: float = 0.0
    mode: str = "serial"  # "serial" | "parallel" | "parallel-degraded"
    jobs: int = 1
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list[ScenarioResult]:
        return [r for r in self.results if not r.ok]

    @property
    def n_checks(self) -> int:
        return sum(len(r.checks) for r in self.results)

    def family_counts(self) -> dict[str, tuple[int, int]]:
        """``family -> (passed, failed)`` over the run."""
        out: dict[str, list[int]] = {}
        for r in self.results:
            slot = out.setdefault(r.spec.family, [0, 0])
            slot[0 if r.ok else 1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def summary(self) -> str:
        """Human-readable run accounting."""
        passed = sum(1 for r in self.results if r.ok)
        lookups = self.cache_hits + self.cache_misses
        hit_rate = f" ({self.cache_hits / lookups:.0%} hit-rate)" if lookups else ""
        lines = [
            "== scenario catalog ==",
            f"scenarios          {len(self.results)} "
            f"({passed} pass / {len(self.results) - passed} fail)",
            f"checks             {self.n_checks}",
            f"mode               {self.mode} (jobs={self.jobs})",
            f"wall time          {self.elapsed:.3f} s",
            f"cache              {self.cache_hits} hits / "
            f"{self.cache_misses} misses{hit_rate}",
        ]
        for family, (p, f) in sorted(self.family_counts().items()):
            lines.append(f"  {family:<16} {p} pass / {f} fail")
        for r in self.failures:
            reason = r.error or "; ".join(c.describe() for c in r.failures)
            lines.append(f"FAIL {r.spec.name}: {reason}")
        return "\n".join(lines)


def run_catalog(
    specs: Sequence[ScenarioSpec],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[ScenarioResult], None] | None = None,
) -> CatalogResult:
    """Evaluate and judge a list of scenarios.

    ``jobs > 1`` evaluates cache misses on a process pool (the same
    arrangement as sweep runs); any pool failure degrades to serial
    evaluation of the remaining scenarios.  Results keep the input
    order.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate scenario names: {dupes}")
    t0 = time.perf_counter()

    payloads = [scenario_payload(s) for s in specs]
    keys = [point_key(*p) for p in payloads]
    seeds = [point_seed(s.seed, p[1]) for s, p in zip(specs, payloads)]

    raw: dict[int, Mapping[str, Any]] = {}
    cached: dict[int, bool] = {}
    pending: list[int] = []
    for i, key in enumerate(keys):
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            raw[i] = hit
            cached[i] = True
        else:
            pending.append(i)
            cached[i] = False

    mode = "serial"
    if pending and jobs > 1:
        mode = _run_parallel(raw, pending, payloads, seeds, jobs)
    for i in pending:
        if i not in raw:
            model, params, options = payloads[i]
            raw[i] = evaluate_point(model, params, options, seeds[i])

    out = CatalogResult(mode=mode, jobs=jobs)
    for i, (spec, key) in enumerate(zip(specs, keys)):
        if cached[i]:
            out.cache_hits += 1
        else:
            out.cache_misses += 1
            if cache is not None and "error" not in raw[i]:
                cache.put(key, raw[i])
        result = judge_scenario(spec, raw[i], key=key, cached=cached[i])
        out.results.append(result)
        if progress is not None:
            progress(result)
    out.elapsed = time.perf_counter() - t0
    return out


def _run_parallel(
    raw: dict[int, Mapping[str, Any]],
    pending: Sequence[int],
    payloads: Sequence[tuple[dict[str, Any], dict[str, Any], dict[str, Any]]],
    seeds: Sequence[int],
    jobs: int,
) -> str:
    """Fill ``raw`` for ``pending`` indices on a worker pool.

    Mirrors the sweep runner's degradation ladder: pool-creation or
    submission failure leaves everything to the caller's serial
    fill-in; a per-future failure leaves just that scenario.  Either
    way the run completes and the mode records what happened.
    """
    try:
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
    except Exception:
        return "parallel-degraded"
    mode = "parallel"
    try:
        try:
            futures = {
                i: executor.submit(
                    evaluate_point, payloads[i][0], payloads[i][1],
                    payloads[i][2], seeds[i],
                )
                for i in pending
            }
        except Exception:
            return "parallel-degraded"
        for i in pending:
            try:
                raw[i] = futures[i].result()
            except Exception:
                mode = "parallel-degraded"
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    return mode
