"""What-if analysis: "the performance implications of candidate design changes".

The paper's conclusion argues the bounds are "tight enough to be
helpful in understanding the performance implications of candidate
design changes".  This module makes that workflow first-class:

* :func:`upgrade_stage` / :func:`downgrade_stage` — scale one stage's
  measured rates (a faster kernel, a wider link), and its measured
  per-job times inversely, so the DES runs the upgrade too
  (:func:`scaled_stage` is that rule for one stage);
* :func:`compare` — analyze two pipeline variants side by side;
* :func:`bottleneck_ladder` — repeatedly upgrade the current bottleneck
  and report how far each upgrade moves the guaranteed rate (where the
  next bottleneck takes over), the developer-attention list the paper's
  intro motivates;
* :func:`upgrade_grid` — the grid generalisation: evaluate *every*
  combination of candidate stage upgrades through the
  :mod:`repro.sweep` engine (parallel workers, content-addressed result
  cache), for design spaces too large to compare one pair at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Sequence

from .._validation import check_positive
from ..units import format_rate, format_seconds
from .analysis import AnalysisReport, analyze
from .pipeline import Pipeline
from .stage import Stage

if TYPE_CHECKING:  # pragma: no cover
    from ..sweep import ResultCache, SweepResult

__all__ = [
    "WhatIfReport",
    "scaled_stage",
    "upgrade_stage",
    "downgrade_stage",
    "compare",
    "bottleneck_ladder",
    "upgrade_grid",
]


def scaled_stage(s: Stage, factor: float) -> Stage:
    """A copy of the stage with its rates scaled by ``factor``.

    The stage's measured per-job execution-time overrides
    (``exec_time_min``/``exec_time_max``, which the DES draws job times
    from) scale by ``1 / factor``, so a simulation sees the same upgrade
    as the NC analysis.  This is the one stage-scaling rule:
    :func:`upgrade_stage` and the sweep's ``scale:<stage>`` axis apply it.
    """
    check_positive("factor", factor)
    changes: dict[str, Any] = dict(
        min_rate=s.rate_min * factor,
        avg_rate=s.avg_rate * factor,
        max_rate=s.rate_max * factor,
    )
    if s.exec_time_min is not None:
        changes["exec_time_min"] = s.exec_time_min / factor
        changes["exec_time_max"] = s.exec_time_max / factor
    return replace(s, **changes)


def upgrade_stage(pipeline: Pipeline, name: str, factor: float) -> Pipeline:
    """A copy of the pipeline with one stage scaled by ``factor``
    (:func:`scaled_stage`)."""
    s = pipeline.stages[pipeline.stage_index(name)]
    return pipeline.with_stage(name, scaled_stage(s, factor))


def downgrade_stage(pipeline: Pipeline, name: str, factor: float) -> Pipeline:
    """A copy with one stage's rates divided by ``factor > 1``."""
    check_positive("factor", factor)
    return upgrade_stage(pipeline, name, 1.0 / factor)


@dataclass(frozen=True)
class WhatIfReport:
    """Side-by-side analysis of a baseline and a candidate change."""

    baseline: AnalysisReport
    candidate: AnalysisReport
    change: str

    @property
    def throughput_gain(self) -> float:
        """Relative change of the guaranteed (lower-bound) throughput."""
        return (
            self.candidate.throughput_lower_bound
            / self.baseline.throughput_lower_bound
            - 1.0
        )

    @property
    def delay_change(self) -> float:
        """Relative change of the delay bound (negative = faster)."""
        return self.candidate.delay_bound / self.baseline.delay_bound - 1.0

    @property
    def moved_bottleneck(self) -> bool:
        """True when the change shifted which stage limits the system."""
        return self.baseline.bottleneck != self.candidate.bottleneck

    def summary(self) -> str:
        """Human-readable comparison."""
        b, c = self.baseline, self.candidate
        lines = [
            f"== what-if: {self.change} ==",
            f"guaranteed throughput  {format_rate(b.throughput_lower_bound)} -> "
            f"{format_rate(c.throughput_lower_bound)} ({self.throughput_gain:+.1%})",
            f"delay bound            {format_seconds(b.delay_bound)} -> "
            f"{format_seconds(c.delay_bound)} ({self.delay_change:+.1%})",
            f"bottleneck             {b.bottleneck} -> {c.bottleneck}"
            + ("  (moved!)" if self.moved_bottleneck else ""),
        ]
        return "\n".join(lines)


def compare(
    baseline: Pipeline,
    candidate: Pipeline,
    *,
    change: str = "candidate",
    **analyze_kwargs,
) -> WhatIfReport:
    """Analyze both variants under identical options."""
    return WhatIfReport(
        baseline=analyze(baseline, **analyze_kwargs),
        candidate=analyze(candidate, **analyze_kwargs),
        change=change,
    )


def bottleneck_ladder(
    pipeline: Pipeline, steps: int = 3, factor: float = 2.0, **analyze_kwargs
) -> list[WhatIfReport]:
    """Iteratively upgrade the current bottleneck stage.

    Each step doubles (by default) the limiting stage's rates and
    re-analyzes; the returned reports show how much each successive
    hardware investment actually buys — diminishing returns appear as
    soon as another stage (or the source) takes over.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    reports: list[WhatIfReport] = []
    current = pipeline
    for _ in range(steps):
        base_report = analyze(current, **analyze_kwargs)
        upgraded = upgrade_stage(current, base_report.bottleneck, factor)
        reports.append(
            compare(
                current,
                upgraded,
                change=f"upgrade {base_report.bottleneck} x{factor:g}",
                **analyze_kwargs,
            )
        )
        current = upgraded
    return reports


def upgrade_grid(
    pipeline: Pipeline,
    stages: Sequence[str],
    factors: Sequence[float],
    *,
    jobs: int = 1,
    cache: "ResultCache | None" = None,
    simulate: bool = False,
    workload: float | None = None,
    packetized: bool = False,
    base_seed: int = 42,
) -> "SweepResult":
    """Evaluate every combination of stage-rate upgrades as a sweep.

    Where :func:`compare` analyzes one candidate and
    :func:`bottleneck_ladder` walks a single greedy path, this
    enumerates the full ``len(factors) ** len(stages)`` grid through
    :func:`repro.sweep.run_sweep` — so candidates evaluate on worker
    processes when ``jobs > 1``, results are cached across runs when a
    ``cache`` is given, and ``simulate=True`` adds the DES validation
    per point.  Returns the :class:`~repro.sweep.SweepResult`, whose
    ``results[i].nc`` rows hold the bound movements.
    """
    # local import: repro.sweep builds on repro.streaming, not vice versa
    from ..sweep import Axis, SweepSpec, run_sweep

    if not stages:
        raise ValueError("need at least one stage to sweep")
    spec = SweepSpec.from_pipeline(
        pipeline,
        [Axis(f"scale:{name}", tuple(factors)) for name in stages],
        simulate=simulate,
        packetized=packetized,
        workload=workload,
        base_seed=base_seed,
    )
    return run_sweep(spec, jobs=jobs, cache=cache)
