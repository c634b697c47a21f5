"""Bound-vs-observed conformance: replay DES observations against NC bounds.

The paper's validity claim is falsifiable: for a correctly modelled
pipeline, every discrete-event observation must respect the
network-calculus envelopes.  This module replays a finished simulation
against the model and reports every violation it finds — a true
violation is a bug in one of the two engines (or in the model wiring
between them), which makes this correctness tooling for both.

Checks
------
``delay.end_to_end``
    observed virtual delays (horizontal deviation between the cumulative
    arrival and departure records — the per-job latency the bound
    ``d = h(alpha, beta)`` constrains) against the delay bound;
``arrival.source``
    observed cumulative arrivals against ``alpha(t) + l_max`` — from the
    origin and over a sample of sliding windows (``l_max`` is one source
    packet: admission is packet-granular while ``alpha`` is fluid);
``backlog.system``
    the total-resident-bytes step series against the backlog bound ``x``;
``queue.<stage>``
    each stage's input-queue high-water mark against the system backlog
    bound (each queue is part of the system backlog, so this is sound;
    its per-stage margins show *where* the bound's slack lives);
``service.<stage>``
    recorded per-job service spans against the modelled per-job
    execution-time range (catches model-to-simulator wiring bugs).

In the transient regime (``R_alpha > R_beta``) the asymptotic bounds are
infinite and the paper's closed-form *estimates* take their place; the
report flags this (``bounds_are_estimates``) — there, a violation
falsifies the paper's transient hypothesis rather than a theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..nc import backlog_bound as nc_backlog_bound
from ..nc import delay_bound as nc_delay_bound
from ..nc import eval_batch
from ..nc.curve import Curve
from ..streaming.analysis import AnalysisReport, analyze
from ..streaming.model import build_model
from ..streaming.pipeline import Pipeline
from ..units import format_bytes, format_seconds
from .probe import MultiProbe, ServiceLog, SimProbe

if TYPE_CHECKING:  # pragma: no cover
    from ..des.report import SimulationReport

__all__ = [
    "Violation",
    "CheckResult",
    "ConformanceReport",
    "check_delay",
    "check_arrivals",
    "check_backlog",
    "check_queues",
    "check_stage_service",
    "evaluate_conformance",
    "run_conformance",
    "valid_bounds",
]

#: right-limit nudge for evaluating curves at jump points (seconds)
_EPS = 1e-12


@dataclass(frozen=True)
class Violation:
    """One observation that exceeded its bound."""

    check: str
    stage: str
    time: float
    observed: float
    bound: float

    @property
    def message(self) -> str:
        return (
            f"{self.check}: stage {self.stage!r} at t={self.time:.9g} s "
            f"observed {self.observed:.9g} > bound {self.bound:.9g}"
        )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one conformance check."""

    name: str
    stage: str
    n_observations: int
    worst_observed: float
    bound: float
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def margin(self) -> float:
        """Relative slack ``(bound - worst) / bound`` — how loose the
        bound is here (negative means violated)."""
        if not math.isfinite(self.bound) or self.bound <= 0:
            return math.nan
        return (self.bound - self.worst_observed) / self.bound

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "stage": self.stage,
            "n_observations": self.n_observations,
            "worst_observed": self.worst_observed,
            "bound": self.bound,
            "margin": None if math.isnan(self.margin) else self.margin,
            "n_violations": len(self.violations),
        }


@dataclass(frozen=True)
class ConformanceReport:
    """Every check's outcome for one (analysis, simulation) pair."""

    pipeline_name: str
    bounds_are_estimates: bool
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def violations(self) -> tuple[Violation, ...]:
        return tuple(v for c in self.checks for v in c.violations)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict[str, Any]:
        """Compact JSON-able verdict (sweep artifact row)."""
        delay = next((c for c in self.checks if c.name == "delay.end_to_end"), None)
        return {
            "ok": self.ok,
            "estimate": self.bounds_are_estimates,
            "n_violations": len(self.violations),
            "delay_margin": (
                None
                if delay is None or math.isnan(delay.margin)
                else delay.margin
            ),
            "checks": {c.name: c.to_dict() for c in self.checks},
        }

    def summary(self) -> str:
        """Human-readable verdict table plus every violation message."""
        kind = "estimates (transient regime)" if self.bounds_are_estimates else "bounds"
        lines = [
            f"== conformance: {self.pipeline_name} ==",
            f"model {kind}; {len(self.checks)} checks, "
            f"{len(self.violations)} violation(s)",
            f"{'check':<26} {'n':>6} {'worst':>12} {'bound':>12} "
            f"{'margin':>8}  verdict",
        ]
        for c in self.checks:
            if c.name.startswith(("delay", "service")):
                worst, bound = format_seconds(c.worst_observed), format_seconds(c.bound)
            else:
                worst, bound = format_bytes(c.worst_observed), format_bytes(c.bound)
            margin = "-" if math.isnan(c.margin) else f"{c.margin:7.1%}"
            verdict = "ok" if c.ok else f"FAIL({len(c.violations)})"
            lines.append(
                f"{c.name:<26} {c.n_observations:>6} {worst:>12} {bound:>12} "
                f"{margin:>8}  {verdict}"
            )
        for v in self.violations:
            lines.append(f"  VIOLATION {v.message}")
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# individual checks
# --------------------------------------------------------------------- #


def check_delay(
    sim: "SimulationReport",
    bound: float,
    *,
    skip_initial_fraction: float = 0.0,
    levels: int = 512,
    rtol: float = 1e-3,
) -> CheckResult:
    """Observed virtual delays vs the delay bound.

    Samples the horizontal deviation between the cumulative arrival and
    departure records at ``levels`` byte levels (the same quantity
    :meth:`SimulationReport.observed_virtual_delays` reports, kept here
    with its departure times so violations can be located in time).
    ``skip_initial_fraction`` discards the pipeline-fill transient,
    matching the paper's steady-state observation window.
    """
    at, ac = sim.arrivals.arrays()
    dt, dc = sim.departures.arrays()
    total = sim.output_bytes
    if total <= 0:
        return CheckResult("delay.end_to_end", "end-to-end", 0, math.nan, bound)
    if not 0.0 <= skip_initial_fraction < 1.0:
        raise ValueError("skip_initial_fraction must be in [0, 1)")
    y0 = max(total / levels, total * skip_initial_fraction)
    ys = np.linspace(y0, total, levels)
    ai = np.clip(np.searchsorted(ac, ys - 1e-9, side="left"), 0, len(at) - 1)
    di = np.clip(np.searchsorted(dc, ys - 1e-9, side="left"), 0, len(dt) - 1)
    delays = np.maximum(0.0, dt[di] - at[ai])
    worst = float(np.max(delays))
    bad = np.nonzero(delays > bound * (1.0 + rtol))[0]
    violations = tuple(
        Violation("delay.end_to_end", "end-to-end", float(dt[di[i]]),
                  float(delays[i]), bound)
        for i in bad[:8]
    )
    return CheckResult(
        "delay.end_to_end", "end-to-end", len(ys), worst, bound, violations
    )


def check_arrivals(
    sim: "SimulationReport",
    alpha: Curve,
    l_max: float,
    *,
    max_windows: int = 256,
    rtol: float = 1e-3,
) -> CheckResult:
    """Observed cumulative arrivals vs ``alpha(t) + l_max``.

    Checks the arrival record from the origin at every step, and over
    all pairwise windows of a ``<= max_windows``-point decimation (the
    arrival-curve statement constrains *every* window, not just those
    anchored at zero).  ``l_max`` absorbs packet-granular admission.
    """
    at, ac = sim.arrivals.arrays()
    n = len(at)
    if n == 0 or ac[-1] <= 0:
        return CheckResult("arrival.source", "source", 0, 0.0, l_max)
    slack = l_max * (1.0 + rtol) + rtol * float(ac[-1])

    # from-origin: A(t) <= alpha(t+) + l_max at every recorded step
    env0 = eval_batch(alpha, at + _EPS) + l_max
    bad0 = np.nonzero(ac > env0 + rtol * np.maximum(1.0, env0))[0]

    # windowed: decimate, then test all i<j increments.  The indices are
    # sorted, so dropping repeats needs no np.unique, which imports numpy.ma
    idx = np.linspace(0, n - 1, min(n, max_windows)).astype(int)
    idx = idx[np.diff(idx, prepend=-1) > 0]
    t_s, c_s = at[idx], ac[idx]
    lag = t_s[None, :] - t_s[:, None]
    inc = c_s[None, :] - c_s[:, None]
    upper = np.triu(np.ones_like(lag, dtype=bool), k=1)
    env = eval_batch(alpha, np.maximum(lag, 0.0) + _EPS).reshape(lag.shape) + l_max
    viol_w = upper & (inc > env + rtol * np.maximum(1.0, env))

    worst_excess = float(np.max(np.concatenate([
        (ac - env0), (inc - env)[upper].ravel() if upper.any() else np.array([-np.inf])
    ])))
    violations: list[Violation] = [
        Violation("arrival.source", "source", float(at[i]), float(ac[i]),
                  float(env0[i]))
        for i in bad0[:4]
    ]
    for i, j in zip(*np.nonzero(viol_w)):
        if len(violations) >= 8:
            break
        violations.append(
            Violation("arrival.source", "source", float(t_s[j]), float(inc[i, j]),
                      float(env[i, j]))
        )
    # worst_observed reports the largest envelope excess (<= 0 when
    # conformant); the "bound" column is the packet slack for context
    return CheckResult(
        "arrival.source", "source", int(n + viol_w.size), worst_excess + l_max,
        l_max, tuple(violations)
    )


def check_backlog(
    sim: "SimulationReport", bound: float, *, rtol: float = 1e-3
) -> CheckResult:
    """Total resident bytes (the backlog step series) vs the bound ``x``."""
    times, values = sim.backlog.arrays()
    worst = float(np.max(values)) if len(values) else 0.0
    bad = np.nonzero(values > bound * (1.0 + rtol))[0]
    violations = tuple(
        Violation("backlog.system", "system", float(times[i]), float(values[i]), bound)
        for i in bad[:8]
    )
    return CheckResult(
        "backlog.system", "system", len(values), worst, bound, violations
    )


def check_queues(
    sim: "SimulationReport", bound: float, *, rtol: float = 1e-3
) -> list[CheckResult]:
    """Each stage's input-queue high-water mark vs the system backlog bound.

    Sound because every queue's occupancy is part of the system backlog;
    the per-stage margins localise where the backlog bound's slack (or a
    violation) lives.
    """
    out: list[CheckResult] = []
    for s in sim.stages:
        worst = s.max_queue_bytes
        violations: tuple[Violation, ...] = ()
        if worst > bound * (1.0 + rtol):
            violations = (
                Violation(f"queue.{s.name}", s.name, math.nan, worst, bound),
            )
        out.append(
            CheckResult(f"queue.{s.name}", s.name, s.jobs, worst, bound, violations)
        )
    return out


def check_stage_service(
    spans: Sequence[tuple[str, float, float, float, bool]],
    service_bounds: Mapping[str, tuple[float, float, float]],
    *,
    rtol: float = 1e-3,
) -> list[CheckResult]:
    """Recorded per-job service spans vs the modelled execution-time range.

    ``service_bounds`` maps each stage to ``(t_min, t_max, startup)``;
    a job may take at most ``t_max`` (plus ``startup`` for the stage's
    first job) and at least ``t_min * (1 - rtol)``.  Violations here
    mean the simulator is not executing the model it was given.
    """
    by_stage: dict[str, list[tuple[float, float, bool]]] = {}
    for stage, t0, t1, _nbytes, first in spans:
        by_stage.setdefault(stage, []).append((t0, t1, first))
    out: list[CheckResult] = []
    for stage in service_bounds:
        if stage not in by_stage:
            continue
        t_min, t_max, startup = service_bounds[stage]
        worst = 0.0
        violations: list[Violation] = []
        for t0, t1, first in by_stage[stage]:
            dur = t1 - t0
            hi = t_max + (startup if first else 0.0)
            worst = max(worst, dur)
            if dur > hi * (1.0 + rtol) or dur < t_min * (1.0 - rtol) - _EPS:
                if len(violations) < 8:
                    violations.append(
                        Violation(f"service.{stage}", stage, t1, dur, hi)
                    )
        out.append(
            CheckResult(
                f"service.{stage}",
                stage,
                len(by_stage[stage]),
                worst,
                t_max + startup,
                tuple(violations),
            )
        )
    return out


# --------------------------------------------------------------------- #
# bound selection and top-level drivers
# --------------------------------------------------------------------- #


def valid_bounds(pipeline: Pipeline) -> tuple[float, float, Curve, bool]:
    """``(delay, backlog, alpha, is_estimate)`` to check a DES run against.

    Stable pipelines get the theoretically valid floor for a
    job-granular, smoothly-fed system: per-node *packetized* curves with
    conservative aggregation, taking the tighter of the convolved and
    recursion system curves.  Unstable (transient-regime) pipelines get
    the paper's closed-form estimates, flagged as such.
    """
    model = build_model(pipeline, packetized=True, conservative_aggregation=True)
    if model.stable:
        beta_valid = model.beta_convolved.minimum(model.beta_system)
        return (
            nc_delay_bound(model.alpha, beta_valid),
            nc_backlog_bound(model.alpha, beta_valid),
            model.alpha,
            False,
        )
    rep = analyze(pipeline, packetized=False)
    return rep.delay_bound, rep.backlog_bound, rep.alpha, True


def evaluate_conformance(
    pipeline_name: str,
    sim: "SimulationReport",
    *,
    delay: float,
    backlog: float,
    alpha: Curve,
    l_max: float,
    estimates: bool = False,
    spans: Sequence[tuple[str, float, float, float, bool]] | None = None,
    service_bounds: Mapping[str, tuple[float, float, float]] | None = None,
    skip_initial_fraction: float = 0.15,
    rtol: float = 1e-3,
) -> ConformanceReport:
    """Run every applicable check over a finished simulation."""
    checks: list[CheckResult] = [
        check_delay(
            sim, delay, skip_initial_fraction=skip_initial_fraction, rtol=rtol
        ),
        check_arrivals(sim, alpha, l_max, rtol=rtol),
        check_backlog(sim, backlog, rtol=rtol),
    ]
    checks.extend(check_queues(sim, backlog, rtol=rtol))
    if spans is not None and service_bounds:
        checks.extend(check_stage_service(spans, service_bounds, rtol=rtol))
    return ConformanceReport(pipeline_name, estimates, tuple(checks))


def _service_bounds_of(sim_stages) -> dict[str, tuple[float, float, float]]:
    """Per-stage ``(t_min, t_max, startup)`` from the simulator stages.

    Distributions expose their support as ``lo``/``hi`` attributes;
    stages with a custom (unbounded) distribution are skipped.
    """
    out: dict[str, tuple[float, float, float]] = {}
    for st in sim_stages:
        lo = getattr(st.service, "lo", None)
        hi = getattr(st.service, "hi", None)
        if lo is not None and hi is not None:
            out[st.name] = (float(lo), float(hi), st.startup_latency)
    return out


def run_conformance(
    pipeline: Pipeline,
    *,
    workload: float,
    run_pipeline: Pipeline | None = None,
    seed: int | None = 42,
    queue_bytes: Mapping[str, float] | None = None,
    scenario: str = "avg",
    skip_initial_fraction: float = 0.15,
    rtol: float = 1e-3,
    probe: SimProbe | None = None,
) -> ConformanceReport:
    """Analyse, simulate, and cross-check one pipeline end to end.

    ``pipeline`` supplies the model (bounds and arrival curve);
    ``run_pipeline`` optionally overrides the simulated system (the
    paper's deployed variants pace their source below the modelled
    envelope — the bounds must still hold).  Extra probes (a tracer, a
    metrics registry) ride along via ``probe``.
    """
    from ..streaming.simulation import to_simulation

    delay, backlog, alpha, estimates = valid_bounds(pipeline)
    log = ServiceLog()
    probes: SimProbe = log if probe is None else MultiProbe([log, probe])
    experiment = to_simulation(
        run_pipeline if run_pipeline is not None else pipeline,
        workload=workload,
        seed=seed,
        queue_bytes=queue_bytes,
        scenario=scenario,
        probe=probes,
    )
    sim = experiment.run()
    return evaluate_conformance(
        pipeline.name,
        sim,
        delay=delay,
        backlog=backlog,
        alpha=alpha,
        l_max=(run_pipeline or pipeline).source.packet_bytes,
        estimates=estimates,
        spans=log.spans,
        service_bounds=_service_bounds_of(experiment.stages),
        skip_initial_fraction=skip_initial_fraction,
        rtol=rtol,
    )
