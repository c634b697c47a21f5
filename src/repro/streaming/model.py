"""From a measured pipeline to its network-calculus model.

Builds, for each normalized stage, the (minimum) rate-latency service
curve ``beta_n`` and the maximum service curve ``gamma_n``; applies the
packetization corrections when requested; and concatenates the chain
into system-level curves.  Two system service curves are exposed:

* ``beta_system`` — the paper's model: the bottleneck's input-referred
  minimum rate with the **job-ratio latency recursion**
  (``T_n^tot = T_{n-1}^tot + b_n/R_alpha_{n-1} + T_n``) as its latency;
* ``beta_convolved`` — the plain min-plus convolution of the per-node
  curves (no aggregation modelling), kept for the ablation bench that
  quantifies what the paper's modification buys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from ..nc import (
    Curve,
    Tandem,
    TandemNode,
    constant_rate,
    convolve_many,
    leaky_bucket,
    packetize_service,
    rate_latency,
)
from .jobratio import LatencyTerm, total_latency_breakdown
from .normalization import NormalizedStage
from .pipeline import Pipeline

__all__ = ["SystemModel", "build_model"]


@dataclass(frozen=True)
class SystemModel:
    """All network-calculus curves derived from one pipeline."""

    pipeline: Pipeline
    normalized: tuple[NormalizedStage, ...]
    packetized: bool
    #: when True, aggregation (collection) latency is charged to every
    #: node regardless of the source burst.  The paper's recursion skips
    #: collection when an upstream burst covers the job — valid when
    #: backpressure keeps queues saturated (the paper's experiments), but
    #: optimistic for smooth arrivals, where the one-time source burst
    #: cannot pre-fill every job forever.  See the buffer_sizing example.
    conservative_aggregation: bool = False

    # ------------------------------------------------------------------ #
    # per-node curves
    # ------------------------------------------------------------------ #

    def node_service_curve(self, i: int) -> Curve:
        """``beta_i``: rate-latency from the stage's worst rate and latency.

        With ``packetized=True`` the curve is corrected to
        ``[beta - l_max]^+`` where ``l_max`` is the larger of the
        stage's input-referred job and emission granularity — a
        job-granular node may hold one whole aggregated job before its
        first byte departs, the aggregator analogue of the packetizer
        theorem.
        """
        s = self.normalized[i]
        beta = rate_latency(s.rate_min, s.latency)
        if self.packetized:
            beta = packetize_service(beta, max(s.job_bytes, s.emit_bytes))
        return beta

    def node_max_service_curve(self, i: int) -> Curve:
        """``gamma_i``: best-case constant-rate curve (unchanged by
        packetizers, per the paper's ``gamma' = gamma``)."""
        return constant_rate(self.normalized[i].rate_max)

    # ------------------------------------------------------------------ #
    # arrival curve
    # ------------------------------------------------------------------ #

    @property
    def effective_burst(self) -> float:
        """Burst of the end-to-end arrival curve.

        The source burst, or — when some node aggregates a larger job —
        the largest input-referred job volume in the chain: that block
        materialises instantaneously at the aggregating node's output,
        which is how the paper arrives at a multi-MiB burst for BLAST
        (node E's GPU batch) from a smooth FPGA source.
        """
        return max(
            self.pipeline.source.burst,
            max(s.job_bytes for s in self.normalized),
        )

    @cached_property
    def alpha(self) -> Curve:
        """End-to-end arrival curve ``R_source * t + effective burst``."""
        return leaky_bucket(self.pipeline.source.rate, self.effective_burst)

    # ------------------------------------------------------------------ #
    # system curves
    # ------------------------------------------------------------------ #

    @property
    def bottleneck_rate(self) -> float:
        """Guaranteed system rate: the smallest input-referred min rate."""
        return min(s.rate_min for s in self.normalized)

    @property
    def bottleneck_name(self) -> str:
        """Name of the stage providing :attr:`bottleneck_rate`."""
        return min(self.normalized, key=lambda s: s.rate_min).name

    @property
    def best_case_rate(self) -> float:
        """Best-case system rate: smallest input-referred max rate,
        capped by the source rate."""
        return min(
            self.pipeline.source.rate, min(s.rate_max for s in self.normalized)
        )

    @cached_property
    def latency_terms(self) -> tuple[LatencyTerm, ...]:
        """Per-node breakdown of the job-ratio latency recursion."""
        burst = 0.0 if self.conservative_aggregation else self.pipeline.source.burst
        return tuple(
            total_latency_breakdown(
                list(self.normalized),
                self.pipeline.source.rate,
                burst,
            )
        )

    @property
    def total_latency(self) -> float:
        """``T_N^tot`` from the paper's recursion."""
        return self.latency_terms[-1].cumulative

    @cached_property
    def beta_system(self) -> Curve:
        """System service curve: bottleneck rate, recursion latency.

        Packetization charges the largest emission granularity once.
        """
        beta = rate_latency(self.bottleneck_rate, self.total_latency)
        if self.packetized:
            l_max = max(max(s.job_bytes, s.emit_bytes) for s in self.normalized)
            beta = packetize_service(beta, l_max)
        return beta

    @cached_property
    def beta_convolved(self) -> Curve:
        """Plain concatenation (no job-ratio terms) — ablation baseline."""
        return convolve_many(
            [self.node_service_curve(i) for i in range(len(self.normalized))]
        )

    @cached_property
    def gamma_system(self) -> Curve:
        """System maximum service curve: best-case bottleneck rate."""
        return constant_rate(self.best_case_rate)

    @property
    def stable(self) -> bool:
        """True when ``R_alpha <= R_beta`` (finite asymptotic bounds)."""
        return self.pipeline.source.rate <= self.bottleneck_rate

    # ------------------------------------------------------------------ #

    def tandem(self) -> Tandem:
        """The chain as an :class:`repro.nc.Tandem` for subset analysis."""
        nodes = [
            TandemNode(
                self.node_service_curve(i),
                self.node_max_service_curve(i),
                self.normalized[i].name,
            )
            for i in range(len(self.normalized))
        ]
        return Tandem(self.alpha, nodes)


def build_model(
    pipeline: Pipeline,
    *,
    packetized: bool = True,
    conservative_aggregation: bool = False,
) -> SystemModel:
    """Normalize a pipeline and assemble its :class:`SystemModel`."""
    return SystemModel(
        pipeline=pipeline,
        normalized=tuple(pipeline.normalized()),
        packetized=packetized,
        conservative_aggregation=conservative_aggregation,
    )
