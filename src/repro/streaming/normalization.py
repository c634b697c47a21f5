"""Input-referred normalization of data volumes and rates.

Following Timcheck & Buhler (and the paper's §4.2/§5), every quantity in
the end-to-end model is expressed **per byte of system input**.  If the
stages upstream of node *n* scale data volume by factors
``v_1, ..., v_{n-1}`` (output volume per input byte of each stage), node
*n* touches ``V_{n-1} = prod_i v_i`` bytes per input byte, so

* its input-referred throughput is ``raw_rate / V_{n-1}``, and
* a local block of ``B`` bytes corresponds to ``B / V_{n-1}``
  input-referred bytes.

Compression makes ``v`` uncertain: the lower service bound uses the
*largest* volume (least compression, ratio 1.0) and the maximum service
curve the *smallest* volume (best compression) — exactly the paper's
"service curves after compression take two forms".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .stage import Stage, VolumeRatio

__all__ = [
    "SCENARIOS",
    "check_scenario",
    "cumulative_volume_factors",
    "NormalizedStage",
    "normalize_stage",
    "normalize_stages",
]

#: the data scenarios one run can live in (``None`` is the model view)
SCENARIOS = ("worst", "avg", "best")


def check_scenario(scenario: str | None) -> None:
    """Raise ``ValueError`` unless ``scenario`` names a data scenario
    (or is ``None``, the model view)."""
    if scenario is not None and scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")


def cumulative_volume_factors(
    ratios: Sequence[VolumeRatio],
) -> list[VolumeRatio]:
    """Volume per input byte *entering* each stage (prefix products).

    ``result[i]`` is the (min/avg/max) volume factor of the data stream
    as it arrives at stage ``i``; ``result[0]`` is the identity.
    """
    out = [VolumeRatio.identity()]
    for r in ratios[:-1]:
        prev = out[-1]
        out.append(
            VolumeRatio(prev.best * r.best, prev.avg * r.avg, prev.worst * r.worst)
        )
    return out


@dataclass(frozen=True)
class NormalizedStage:
    """A stage re-expressed in input-referred bytes.

    ``rate_min`` pairs the stage's worst raw rate with the worst-case
    data scenario (largest upstream volume: slowest input-referred
    progress), and ``rate_max`` the best raw rate with the best-case
    scenario — the conservative pairing for lower/upper service curves.
    """

    name: str
    rate_min: float
    rate_avg: float
    rate_max: float
    latency: float
    job_bytes: float      # input-referred aggregation volume b_n
    emit_bytes: float     # input-referred output granularity
    kind: str
    exec_time_min: float | None = None  # measured per-job time extremes
    exec_time_max: float | None = None

    @property
    def job_ratio(self) -> float:
        """Input-referred job ratio (aggregation over emission size)."""
        return self.job_bytes / self.emit_bytes


def normalize_stages(
    stages: Sequence[Stage], scenario: str | None = None
) -> list[NormalizedStage]:
    """Convert raw stage measurements to input-referred form.

    With ``scenario=None`` (the model view) the rate extremes use the
    conservative cross pairing: worst rate under the worst data
    scenario, best rate under the best.  Passing ``"worst"``, ``"avg"``
    or ``"best"`` instead fixes *one* data scenario for every stage —
    the view a single simulation run lives in (one dataset has one
    compression ratio).

    Raises ``ValueError`` on duplicate stage names (the analysis layers
    key per-node results by name).
    """
    names = [s.name for s in stages]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate stage names in {names}")
    check_scenario(scenario)
    factors = cumulative_volume_factors([s.volume_ratio for s in stages])
    return [normalize_stage(s, v, scenario) for s, v in zip(stages, factors)]


def normalize_stage(
    s: Stage, v: VolumeRatio, scenario: str | None = None
) -> NormalizedStage:
    """One stage's input-referred row, given the volume factor ``v`` of
    the data entering it (see :func:`normalize_stages`)."""
    if scenario is None:
        # worst rate in the worst data scenario: lower service bound;
        # best rate in the best data scenario: max service curve
        v_min, v_avg, v_max = v.worst, v.avg, v.best
        v_job = v.avg
    else:
        v_min = v_avg = v_max = v_job = getattr(v, scenario)
    return NormalizedStage(
        name=s.name,
        rate_min=s.rate_min / v_min,
        rate_avg=s.avg_rate / v_avg,
        rate_max=s.rate_max / v_max,
        latency=s.latency,
        job_bytes=s.job_bytes / v_job,
        emit_bytes=s.output_bytes / v_job,
        kind=s.kind.value,
        exec_time_min=s.exec_time_min,
        exec_time_max=s.exec_time_max,
    )
