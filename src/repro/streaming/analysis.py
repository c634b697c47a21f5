"""End-to-end analysis of a streaming pipeline: the paper's headline numbers.

:func:`analyze` produces an :class:`AnalysisReport` containing exactly
what the paper reports for each application:

* throughput **lower bound** (the system service-curve rate) and
  **upper bound** (the arrival/maximum-service rate) — Table 1/3 rows;
* the **virtual delay** bound ``d`` and **backlog** bound ``x`` — the
  numbered observations in §4.2/§5;
* the per-node latency and backlog breakdown (the paper's
  buffer-allocation aid);
* the model curves (``alpha``, ``beta``, ``gamma``, ``alpha*``) that
  Figures 4 and 10 plot.

The per-node breakdown (``nodes``) and ``alpha_star`` are computed on
first read, from the report's model and curves: a sweep point, catalog
scenario or served request reads neither, and so never pays for the
per-node backlog fold or the output-envelope deconvolution.

When ``R_alpha > R_beta`` the asymptotic bounds are infinite; following
the paper's stated hypothesis the report then carries the closed-form
*transient estimates* (``T + b/R_beta``, ``b + R_alpha*T``) flagged by
``transient=True`` — and, when a finite ``workload`` is given, the exact
finite-workload bounds from :mod:`repro.nc.transient`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ..nc import (
    Curve,
    UnboundedCurveError,
    backlog_bound,
    delay_bound,
    output_arrival_curve,
)
from ..nc.transient import (
    affine_backlog_estimate,
    affine_delay_estimate,
    backlog_bound_finite_workload,
    delay_bound_finite_workload,
)
from ..queueing import TandemQueueingModel
from ..units import format_bytes, format_rate, format_seconds
from .model import SystemModel, build_model
from .pipeline import Pipeline

__all__ = ["NodeReport", "AnalysisReport", "analyze"]


@dataclass(frozen=True)
class NodeReport:
    """Per-node analysis row."""

    name: str
    kind: str
    rate_min: float
    rate_avg: float
    rate_max: float
    job_bytes: float
    job_ratio: float
    collection_time: float
    dispatch_latency: float
    backlog_contribution: float


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the network-calculus model says about one pipeline.

    ``nodes`` and ``alpha_star`` are lazy: each is computed on its first
    read (from ``model``, ``alpha``, ``beta``, ``gamma`` and
    ``workload``) and kept.  Every other field is computed by
    :func:`analyze`.
    """

    pipeline_name: str
    model: SystemModel
    stable: bool
    transient: bool
    throughput_lower_bound: float
    throughput_upper_bound: float
    bottleneck: str
    total_latency: float
    effective_burst: float
    delay_bound: float
    backlog_bound: float
    delay_bound_workload: Optional[float]
    backlog_bound_workload: Optional[float]
    queueing_prediction: float
    alpha: Curve
    beta: Curve
    gamma: Curve
    #: the finite workload (input-referred bytes) the bounds were asked for
    workload: Optional[float]

    @cached_property
    def nodes(self) -> tuple[NodeReport, ...]:
        """The per-node breakdown: rates, job shape, latency terms and
        backlog contribution (the paper's buffer-allocation aid)."""
        model = self.model
        return tuple(
            NodeReport(
                name=s.name,
                kind=s.kind,
                rate_min=s.rate_min,
                rate_avg=s.rate_avg,
                rate_max=s.rate_max,
                job_bytes=s.job_bytes,
                job_ratio=s.job_ratio,
                collection_time=term.collection_time,
                dispatch_latency=term.dispatch_latency,
                backlog_contribution=b,
            )
            for s, term, b in zip(
                model.normalized, model.latency_terms, _per_node_backlogs(model)
            )
        )

    @cached_property
    def alpha_star(self) -> Optional[Curve]:
        """The output arrival curve ``(alpha (*) gamma) (/) beta``.

        Unbounded when ``R_alpha > R_beta``: the flow is then capped at
        ``workload`` (mirroring a finite experiment), or ``None`` without
        one.
        """
        try:
            return output_arrival_curve(self.alpha, self.beta, self.gamma)
        except UnboundedCurveError:
            if self.workload is None:
                return None
            capped = self.alpha.minimum(Curve.constant(self.workload))
            return output_arrival_curve(capped, self.beta, self.gamma)

    def summary(self) -> str:
        """Human-readable report in the shape of the paper's tables."""
        kind = "transient estimate" if self.transient else "bound"
        lines = [
            f"== network calculus analysis: {self.pipeline_name} ==",
            f"throughput upper bound   {format_rate(self.throughput_upper_bound)}",
            f"throughput lower bound   {format_rate(self.throughput_lower_bound)}"
            f"   (bottleneck: {self.bottleneck})",
            f"queueing roofline        {format_rate(self.queueing_prediction)}",
            f"virtual delay {kind:<18} d <= {format_seconds(self.delay_bound)}",
            f"backlog {kind:<24} x <= {format_bytes(self.backlog_bound)}",
            f"initial latency T_tot    {format_seconds(self.total_latency)}",
            f"effective burst b        {format_bytes(self.effective_burst)}",
            f"stable (R_a <= R_b)      {self.stable}",
        ]
        if self.delay_bound_workload is not None:
            lines.append(
                f"finite-workload delay    d <= {format_seconds(self.delay_bound_workload)}"
            )
        if self.backlog_bound_workload is not None:
            lines.append(
                f"finite-workload backlog  x <= {format_bytes(self.backlog_bound_workload)}"
            )
        lines.append("per-node (input-referred):")
        for n in self.nodes:
            lines.append(
                f"  {n.name:<14} {n.kind:<8} rate {format_rate(n.rate_min):>14} / "
                f"{format_rate(n.rate_avg):>14} / {format_rate(n.rate_max):>14}  "
                f"collect {format_seconds(n.collection_time):>10}  "
                f"T {format_seconds(n.dispatch_latency):>10}  "
                f"backlog<= {format_bytes(n.backlog_contribution):>12}"
            )
        return "\n".join(lines)


def _per_node_backlogs(model: SystemModel) -> list[float]:
    """Backlog contribution of each node.

    Uses the exact tandem propagation when the chain is stable; in the
    transient regime, applies the paper's affine estimate with each
    node's local arrival rate (source rate capped by upstream service)
    and the local burst (the node's own aggregated job).
    """
    if model.stable:
        try:
            return model.tandem().per_node_backlog_bounds()
        except UnboundedCurveError:  # pragma: no cover - defensive
            pass
    out = []
    upstream_rate = model.pipeline.source.rate
    upstream_burst = max(model.pipeline.source.burst, model.pipeline.source.packet_bytes)
    for s, term in zip(model.normalized, model.latency_terms):
        local_burst = max(upstream_burst, s.job_bytes)
        out.append(
            affine_backlog_estimate(
                upstream_rate, local_burst, term.collection_time + s.latency
            )
        )
        upstream_rate = min(upstream_rate, s.rate_min)
        upstream_burst = max(upstream_burst, s.emit_bytes)
    return out


def analyze(
    pipeline: Pipeline,
    *,
    packetized: bool = True,
    workload: float | None = None,
    conservative_aggregation: bool = False,
) -> AnalysisReport:
    """Run the full network-calculus analysis of a pipeline.

    ``workload`` (input-referred bytes) additionally computes the exact
    finite-workload bounds, and enables the output-envelope curve
    ``alpha*`` in the unstable regime (by capping the flow at the
    workload volume, mirroring a finite experiment).

    ``conservative_aggregation`` charges every node's job-collection
    latency even when the source burst nominally covers it — required
    for smooth (non-backpressured) arrivals; see
    :class:`repro.streaming.model.SystemModel`.
    """
    model = build_model(
        pipeline,
        packetized=packetized,
        conservative_aggregation=conservative_aggregation,
    )
    alpha, beta, gamma = model.alpha, model.beta_system, model.gamma_system

    stable = model.stable
    transient = not stable
    if stable:
        d = delay_bound(alpha, beta)
        x = backlog_bound(alpha, beta)
    else:
        # the paper's hypothesis: use the formula values as estimates
        d = affine_delay_estimate(
            model.effective_burst, model.bottleneck_rate, model.total_latency
        )
        x = affine_backlog_estimate(
            model.pipeline.source.rate, model.effective_burst, model.total_latency
        )

    d_w = x_w = None
    if workload is not None:
        d_w = delay_bound_finite_workload(alpha, beta, workload)
        x_w = backlog_bound_finite_workload(alpha, beta, workload)

    queueing = TandemQueueingModel.from_rates(
        [(s.name, s.rate_avg, s.job_bytes) for s in model.normalized],
        input_rate=pipeline.source.rate,
    ).predicted_throughput()

    return AnalysisReport(
        pipeline_name=pipeline.name,
        model=model,
        stable=stable,
        transient=transient,
        # a source-limited system cannot exceed its offered load, so the
        # guaranteed rate is capped by the source rate as well
        throughput_lower_bound=min(model.bottleneck_rate, pipeline.source.rate),
        throughput_upper_bound=model.best_case_rate,
        bottleneck=model.bottleneck_name,
        total_latency=model.total_latency,
        effective_burst=model.effective_burst,
        delay_bound=d,
        backlog_bound=x,
        delay_bound_workload=d_w,
        backlog_bound_workload=x_w,
        queueing_prediction=queueing,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        workload=workload,
    )
