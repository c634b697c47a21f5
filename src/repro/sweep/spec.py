"""Parameter-grid specifications for design-space sweeps.

A sweep enumerates *variants* of a measured pipeline — scaled stage
rates (candidate hardware upgrades), job-ratio changes (batching
granularity), compression scenarios, source pacing/burst, simulation
buffer bounds, and workload sizes — and evaluates each point with the
network-calculus analysis (and optionally the DES validation).

An :class:`Axis` is one named parameter with an ordered list of values;
a :class:`SweepSpec` is a base pipeline plus axes, enumerated as the
full cartesian product in deterministic (row-major) order.

Axis names form a small, closed vocabulary so points stay JSON-able and
cache keys stay stable:

``scale:<stage>``
    multiply the named stage's min/avg/max rates (and, inversely, its
    measured per-job execution-time overrides) by the value;
``job_scale:<stage>``
    multiply the named stage's aggregated job size (job-ratio study);
``queue_mib:<stage>``
    bound the named stage's input queue (MiB) in the DES run
    (backpressure / buffer-sizing study; NC analysis is unaffected);
``source_rate_scale`` / ``source_burst_mib``
    scale the source's sustained rate / set its burst (MiB);
``scenario``
    fix the data scenario (``worst``/``avg``/``best``) the DES run
    lives in (compression-ratio exploration);
``workload_mib``
    input-referred volume (MiB) for the DES run and the finite-workload
    bounds.

Grid strings (the CLI's ``--grid`` values) read ``name=v1,v2,v3`` or
``name=lo:hi:n`` (inclusive linear spacing; append ``:log`` for
geometric spacing).  ``scenario`` values are strings; everything else
parses as floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Iterator, Mapping, Sequence

from .._validation import check_positive
from ..streaming import (
    Pipeline,
    Source,
    Stage,
    pipeline_from_dict,
    pipeline_to_dict,
    scaled_stage,
)
from ..streaming.normalization import SCENARIOS, check_scenario
from ..streaming.simulation import check_queue_bounds
from ..units import MiB

__all__ = [
    "Axis",
    "AppliedPoint",
    "SweepPoint",
    "SweepSpec",
    "apply_params",
    "parse_grid_arg",
]

#: axis names taking a stage-name suffix after the colon
_STAGE_AXES = ("scale", "job_scale", "queue_mib")
#: axis names standing alone
_PLAIN_AXES = ("source_rate_scale", "source_burst_mib", "scenario", "workload_mib")


def _check_axis_name(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is in the axis vocabulary."""
    kind = name.split(":", 1)[0]
    if kind in _STAGE_AXES:
        if ":" not in name or not name.split(":", 1)[1]:
            raise ValueError(f"axis {name!r} needs a stage name after ':'")
    elif name not in _PLAIN_AXES:
        raise ValueError(
            f"unknown axis {name!r}; expected one of "
            f"{', '.join(_PLAIN_AXES)} or <{'/'.join(_STAGE_AXES)}>:<stage>"
        )


@dataclass(frozen=True)
class Axis:
    """One sweep dimension: a parameter name and its ordered values."""

    name: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        _check_axis_name(self.name)
        if self.name == "scenario":
            bad = [v for v in self.values if v not in SCENARIOS]
            if bad:
                raise ValueError(f"scenario values must be in {SCENARIOS}, got {bad}")
        else:
            for v in self.values:
                check_positive(f"axis {self.name!r} value", float(v))


def _parse_values(name: str, text: str) -> tuple[Any, ...]:
    """Parse a grid value list: ``v1,v2,...`` or ``lo:hi:n[:log]``."""
    if name == "scenario":
        return tuple(v.strip() for v in text.split(","))
    parts = text.split(":")
    if len(parts) in (3, 4) and "," not in text:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 2:
            raise ValueError(f"axis {name!r}: range needs >= 2 points, got {n}")
        if len(parts) == 4:
            if parts[3] != "log":
                raise ValueError(f"axis {name!r}: unknown spacing {parts[3]!r}")
            if lo <= 0:
                raise ValueError(f"axis {name!r}: log spacing needs lo > 0")
            ratio = (hi / lo) ** (1.0 / (n - 1))
            return tuple(lo * ratio**i for i in range(n))
        step = (hi - lo) / (n - 1)
        return tuple(lo + step * i for i in range(n))
    return tuple(float(v) for v in text.split(","))


def parse_grid_arg(text: str) -> Axis:
    """Parse one ``--grid`` argument, e.g. ``scale:network=0.5:2:4``.

    The split is on the *last* ``=`` so stage names may not contain one;
    value syntax is described in :func:`_parse_values`.
    """
    if "=" not in text:
        raise ValueError(f"grid spec {text!r} must look like name=values")
    name, _, values = text.rpartition("=")
    name = name.strip()
    if not name:
        raise ValueError(f"grid spec {text!r} has an empty axis name")
    return Axis(name, _parse_values(name, values.strip()))


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated grid point: its index and parameter assignment."""

    index: int
    params: Mapping[str, Any]

    def label(self) -> str:
        """Compact ``k=v`` rendering for tables and logs."""
        def fmt(v: Any) -> str:
            return f"{v:g}" if isinstance(v, float) else str(v)

        return " ".join(f"{k}={fmt(v)}" for k, v in sorted(self.params.items()))


@dataclass(frozen=True)
class SweepSpec:
    """A base pipeline plus the grid of variants to evaluate.

    The base pipeline is stored as its JSON document (the same schema
    :mod:`repro.streaming.io` round-trips) so specs hash stably into
    cache keys.  :attr:`pipeline` is that document parsed and validated,
    once, on first read; every point is applied to it.
    """

    base: Mapping[str, Any]
    axes: tuple[Axis, ...]
    simulate: bool = False
    packetized: bool = False
    workload: float | None = None
    base_seed: int = 42

    def __post_init__(self) -> None:
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axes: {names}")
        if self.workload is not None:
            check_positive("workload", self.workload)
        # validate stage-suffixed axes against the base pipeline now,
        # not at point-evaluation time inside a worker; a spec without
        # them leaves every check of the document to the parser
        stage_axes = [a for a in self.axes if a.name.partition(":")[0] in _STAGE_AXES]
        stage_names = {s["name"] for s in self.base["stages"]} if stage_axes else set()
        for a in stage_axes:
            stage = a.name.partition(":")[2]
            if stage not in stage_names:
                raise ValueError(
                    f"axis {a.name!r}: no stage named {stage!r} in pipeline "
                    f"{self.base.get('name')!r}"
                )

    @classmethod
    def from_pipeline(
        cls, pipeline: Pipeline, axes: Sequence[Axis], **kwargs: Any
    ) -> "SweepSpec":
        """Build a spec from an in-memory :class:`Pipeline`."""
        return cls(base=pipeline_to_dict(pipeline), axes=tuple(axes), **kwargs)

    @property
    def n_points(self) -> int:
        """Total grid size (product of axis lengths)."""
        return math.prod(len(a.values) for a in self.axes) if self.axes else 1

    def points(self) -> Iterator[SweepPoint]:
        """Enumerate the cartesian product in deterministic order.

        The last axis varies fastest (row-major), so adding an axis
        appends dimensions without reshuffling existing prefixes.
        """
        if not self.axes:
            yield SweepPoint(0, {})
            return
        for i, combo in enumerate(
            itertools.product(*(a.values for a in self.axes))
        ):
            yield SweepPoint(i, dict(zip((a.name for a in self.axes), combo)))

    # ------------------------------------------------------------------ #
    # point application
    # ------------------------------------------------------------------ #

    @cached_property
    def pipeline(self) -> Pipeline:
        """The base pipeline: the document parsed and validated once, on
        first read (a document that does not parse raises on every read)."""
        return pipeline_from_dict(dict(self.base))

    def apply_point(self, point: SweepPoint) -> "AppliedPoint":
        """Materialize one grid point into a concrete experiment."""
        return apply_params(self.pipeline, point.params, self.workload)


@dataclass(frozen=True)
class AppliedPoint:
    """A grid point resolved into the concrete experiment inputs."""

    pipeline: Pipeline
    scenario: str
    workload: float | None
    queue_bytes: Mapping[str, float] = field(default_factory=dict)


def apply_params(
    pipeline: Pipeline, params: Mapping[str, Any], workload: float | None = None
) -> AppliedPoint:
    """Apply one point's axis assignment to a parsed pipeline, in one pass.

    The stages and the source a param changes are built and validated as
    the axis says (a ``scale:<stage>`` param through
    :func:`~repro.streaming.scaled_stage`); everything else is reused, and
    one :class:`Pipeline` carrying the base's normalized view is built at
    the end.  Every param is checked whether or not the point simulates:
    a name outside the axis vocabulary raises :class:`Axis`'s error, and
    a scenario or queue bound raises what the DES run would.
    ``workload`` (input-referred bytes) is the default a
    ``workload_mib`` param overrides.
    """
    stages: dict[str, Stage] = {}
    source = pipeline.source
    scenario = "avg"
    queue_bytes: dict[str, float] = {}

    def current(name: str) -> Stage:
        """The named stage as this point has changed it so far."""
        if name in stages:
            return stages[name]
        return pipeline.stages[pipeline.stage_index(name)]

    for name, value in params.items():
        kind, _, stage = name.partition(":")
        if kind == "scale":
            stages[stage] = scaled_stage(current(stage), float(value))
        elif kind == "job_scale":
            s = current(stage)
            stages[stage] = replace(s, job_bytes=s.job_bytes * float(value))
        elif kind == "queue_mib":
            queue_bytes[stage] = float(value) * MiB
        elif name == "source_rate_scale":
            source = Source(source.rate * float(value), source.burst, source.packet_bytes)
        elif name == "source_burst_mib":
            source = Source(source.rate, float(value) * MiB, source.packet_bytes)
        elif name == "scenario":
            scenario = str(value)
        elif name == "workload_mib":
            workload = float(value) * MiB
        else:
            _check_axis_name(name)  # raises: each name it accepts is handled above
    check_queue_bounds(pipeline, queue_bytes)
    check_scenario(scenario)
    if stages or source is not pipeline.source:
        pipeline = pipeline.with_changes(source=source, stages=stages)
    return AppliedPoint(
        pipeline=pipeline,
        scenario=scenario,
        workload=workload,
        queue_bytes=queue_bytes,
    )
