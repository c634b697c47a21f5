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
    ``d = h(alpha, beta)`` constrains) against the delay bound, from the
    samples the report computes once for its own summary too;
``arrival.source``
    observed cumulative arrivals against ``alpha(t) + l_max`` — from the
    origin and over every window ``t_i < t_j`` of the record, in one
    linear pass (``l_max`` is one source packet: admission is
    packet-granular while ``alpha`` is fluid);
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
        # as wide as the widest count: arrival.source counts every window
        n_width = max([6, *(len(str(c.n_observations)) for c in self.checks)])
        lines = [
            f"== conformance: {self.pipeline_name} ==",
            f"model {kind}; {len(self.checks)} checks, "
            f"{len(self.violations)} violation(s)",
            f"{'check':<26} {'n':>{n_width}} {'worst':>12} {'bound':>12} "
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
                f"{c.name:<26} {c.n_observations:>{n_width}} {worst:>12} {bound:>12} "
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
    departure records at ``levels`` byte levels: the samples of
    :meth:`SimulationReport.observed_virtual_delays`, computed once per
    report and kept with their departure times so violations can be
    located in time.  ``skip_initial_fraction`` discards the
    pipeline-fill transient, matching the paper's steady-state
    observation window.
    """
    delays, t_out = sim.virtual_delay_samples(levels, skip_initial_fraction)
    if not len(delays):
        return CheckResult("delay.end_to_end", "end-to-end", 0, math.nan, bound)
    worst = float(np.max(delays))
    bad = np.nonzero(delays > bound * (1.0 + rtol))[0]
    violations = tuple(
        Violation("delay.end_to_end", "end-to-end", float(t_out[i]),
                  float(delays[i]), bound)
        for i in bad[:8]
    )
    return CheckResult(
        "delay.end_to_end", "end-to-end", len(delays), worst, bound, violations
    )


def check_arrivals(
    sim: "SimulationReport",
    alpha: Curve,
    l_max: float,
    *,
    rtol: float = 1e-3,
) -> CheckResult:
    """Observed cumulative arrivals vs ``alpha(t) + l_max``.

    Checks the arrival record from the origin at every step, and over
    every window ``t_i < t_j`` of it (the arrival-curve statement
    constrains *every* window, not just those anchored at zero).
    ``l_max`` absorbs packet-granular admission.  ``alpha`` must be
    concave and nondecreasing on ``t > 0``, as every leaky bucket and
    minimum of them is; then the worst window ending at each step is a
    running minimum per linear piece of ``alpha`` (:func:`_lines`), and
    the check takes O(n) time and memory per piece over an n-step record
    (O(n log n) for a piece whose envelope is under one byte at short
    lags).  A failing check lists up to 8 violations, each a real window
    found by one scan of the windows ending at its step.
    """
    at, ac = sim.arrivals.arrays()
    n = len(at)
    if n == 0 or ac[-1] <= 0:
        return CheckResult("arrival.source", "source", 0, 0.0, l_max)
    rates, bursts = _lines(alpha)
    # each piece's envelope is r*lag + floor, alpha taken at lag + _EPS as
    # everywhere in this check
    floors = bursts + rates * _EPS + l_max

    # from-origin: A(t) <= alpha(t+) + l_max at every recorded step
    env0 = eval_batch(alpha, at + _EPS) + l_max
    bad0 = np.nonzero(ac > env0 + rtol * np.maximum(1.0, env0))[0]

    # every window: A_j - A_i - r*(t_j - t_i) = u_j - u_i with u = A - r*t,
    # so the worst window ending at j starts at the running minimum of u
    u = ac - rates[:, None] * at
    gain = u[:, 1:] - np.minimum.accumulate(u, axis=1)[:, :-1]
    worst_w = float(np.max(gain - floors[:, None], initial=-np.inf))

    violations: list[Violation] = [
        Violation("arrival.source", "source", float(at[i]), float(ac[i]),
                  float(env0[i]))
        for i in bad0[:4]
    ]
    # a window violates only by more than rtol * max(1, env) >= rtol
    if worst_w > rtol:
        for j in _violated_ends(at, ac, rates, floors, rtol)[: 8 - len(violations)]:
            lag, inc = at[j] - at[:j], ac[j] - ac[:j]
            env = eval_batch(alpha, lag + _EPS) + l_max
            i = int(np.argmax(inc - env - rtol * np.maximum(1.0, env)))
            if inc[i] > env[i] + rtol * max(1.0, env[i]):
                violations.append(
                    Violation("arrival.source", "source", float(at[j]),
                              float(inc[i]), float(env[i]))
                )
    # worst_observed reports the largest envelope excess plus l_max (so
    # <= l_max when conformant); the "bound" column is the packet slack
    worst_excess = max(float(np.max(ac - env0)), worst_w)
    return CheckResult(
        "arrival.source", "source", n + n * (n - 1) // 2, worst_excess + l_max,
        l_max, tuple(violations)
    )


def _lines(alpha: Curve) -> tuple[np.ndarray, np.ndarray]:
    """``(rates, bursts)`` with ``alpha(t) = min_k(rates[k]*t + bursts[k])``
    for every ``t > 0``: the lines of ``alpha``'s pieces.

    That holds when ``alpha`` is concave on ``t > 0`` (a jump at the
    origin, the burst, is allowed); any other ``alpha`` raises
    :class:`ValueError`, and so does a decreasing one.
    """
    without_jump = Curve(alpha.bx, alpha.sy[:1] + alpha.by[1:], alpha.sy, alpha.sl)
    if not without_jump.is_concave() or alpha.final_slope < 0:
        raise ValueError(
            "the arrival check needs an alpha that is concave and "
            "nondecreasing on t > 0"
        )
    rates = np.array(alpha.sl)
    return rates, np.array(alpha.sy) - rates * np.array(alpha.bx)


def _violated_ends(
    at: np.ndarray,
    ac: np.ndarray,
    rates: np.ndarray,
    floors: np.ndarray,
    rtol: float,
) -> np.ndarray:
    """Every ``j`` at which some window ``t_i < t_j`` violates the rule
    ``inc > env + rtol * max(1, env)``, in increasing order.

    ``env`` is the minimum of the lines ``e(lag) = r*lag + floor``, so a
    window violates iff it violates one line's rule.  Against one line
    the rule is ``inc > (1 + rtol) * e`` over the windows where
    ``e >= 1`` (``lag >= span``, a prefix of the starts), and
    ``inc > e + rtol`` over the others; each is a difference ``x_j - x_i``
    of one series, whose largest value is a running minimum over the
    prefix, or a sliding one over the rest.
    """
    n = len(at)
    ends = np.arange(n)
    bad = np.zeros(n, dtype=bool)
    for rate, floor in zip(rates.tolist(), floors.tolist()):
        if floor >= 1.0:
            span = 0.0
        else:
            span = (1.0 - floor) / rate if rate > 0 else math.inf
        # the first start i whose window ending at j is shorter than span
        cut = ends if span <= 0 else np.minimum(
            np.searchsorted(at, at - span, side="right"), ends
        )
        w = ac - (1.0 + rtol) * rate * at
        longest = np.minimum.accumulate(w)[cut - 1]  # cut == 0: no such window
        bad |= (cut > 0) & (w - longest > (1.0 + rtol) * floor)
        if span > 0:
            v = ac - rate * at
            bad |= v - _range_min(v, cut, ends) > floor + rtol
    return np.nonzero(bad)[0]


def _range_min(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``min(x[lo[j]:hi[j]])`` for every ``j``; ``inf`` where it is empty.

    A sparse table: level ``m`` holds the minimum of every ``2**m``
    consecutive entries, and a range of width ``w`` is the minimum of
    two overlapping blocks of the largest ``2**m <= w``.
    """
    out = np.full(len(lo), np.inf)
    width = hi - lo
    table, size = x, 1
    while size <= width.max(initial=0):
        sel = np.nonzero((width >= size) & (width < 2 * size))[0]
        out[sel] = np.minimum(table[lo[sel]], table[hi[sel] - size])
        table = np.minimum(table[:-size], table[size:])
        size *= 2
    return out


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
