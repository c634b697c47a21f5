"""Pipeline container: a source feeding a chain of measured stages.

The paper's applications are linear chains (Figs. 3 and 9) whose nodes
represent computations *or* communications.  :class:`Pipeline` holds the
raw stage measurements plus the source description and provides the
normalized (input-referred) view, computed once and carried into the
copies a what-if change makes (:meth:`Pipeline.with_changes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .._validation import check_non_negative, check_positive
from ..nc import Curve, leaky_bucket
from .normalization import (
    NormalizedStage,
    cumulative_volume_factors,
    normalize_stage,
    normalize_stages,
)
from .stage import Stage, VolumeRatio

__all__ = ["Source", "Pipeline"]


@dataclass(frozen=True)
class Source:
    """The data producer feeding the pipeline.

    ``rate`` is the sustained input rate (bytes/s of system input);
    ``burst`` the instantaneously-available volume; ``packet_bytes`` the
    emission granularity (used by the simulator and the packetizer).
    """

    rate: float
    burst: float = 0.0
    packet_bytes: float = 1.0

    def __post_init__(self) -> None:
        check_positive("rate", self.rate)
        check_non_negative("burst", self.burst)
        check_positive("packet_bytes", self.packet_bytes)

    def arrival_curve(self) -> Curve:
        """Leaky-bucket arrival curve ``R_alpha * t + b``."""
        return leaky_bucket(self.rate, self.burst)


@dataclass(frozen=True)
class Pipeline:
    """A named linear pipeline: ``source -> stages[0] -> ... -> stages[-1]``."""

    name: str
    source: Source
    stages: tuple[Stage, ...]

    def __init__(self, name: str, source: Source, stages: Iterable[Stage]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "stages", tuple(stages))
        if not self.name:
            raise ValueError("pipeline name must be non-empty")
        if not self.stages:
            raise ValueError("pipeline needs at least one stage")
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        # the carried normalized view (not fields: equality, hashing and
        # repr see name, source and stages only): the rows per data
        # scenario, and the volume factor entering each stage
        object.__setattr__(self, "_views", {})
        object.__setattr__(self, "_factors", None)

    # ------------------------------------------------------------------ #

    def stage_names(self) -> list[str]:
        """Stage names in flow order."""
        return [s.name for s in self.stages]

    def stage_index(self, name: str) -> int:
        """Index of the stage called ``name`` (raises ``KeyError``)."""
        for i, s in enumerate(self.stages):
            if s.name == name:
                return i
        raise KeyError(f"no stage named {name!r} in pipeline {self.name!r}")

    def normalized(self, scenario: str | None = None) -> list[NormalizedStage]:
        """Input-referred view of all stages (see :func:`normalize_stages`),
        computed on the first read per scenario and kept."""
        view = self._views.get(scenario)
        if view is None:
            view = self._views[scenario] = tuple(normalize_stages(self.stages, scenario))
        return list(view)

    def with_source(self, source: Source) -> "Pipeline":
        """Copy of this pipeline fed by a different source."""
        return self.with_changes(source=source)

    def with_stage(self, name: str, stage: Stage) -> "Pipeline":
        """Copy with the named stage replaced (what-if analysis)."""
        return self.with_changes(stages={name: stage})

    def with_changes(
        self,
        *,
        source: Source | None = None,
        stages: Mapping[str, Stage] | None = None,
    ) -> "Pipeline":
        """Copy with the source and/or the named stages replaced.

        The copy carries this pipeline's normalized view.  A replaced
        stage that keeps its volume ratio has only its own row
        recomputed; a new volume ratio moves every downstream factor, so
        the copy then computes its view afresh on first read.
        """
        new = list(self.stages)
        changed = []
        for name, stage in (stages or {}).items():
            i = self.stage_index(name)
            new[i] = stage
            changed.append(i)
        out = Pipeline(self.name, self.source if source is None else source, new)
        if self._views and all(
            new[i].volume_ratio == self.stages[i].volume_ratio for i in changed
        ):
            factors = self._volume_factors()
            object.__setattr__(out, "_factors", factors)
            for scenario, view in self._views.items():
                rows = list(view)
                for i in changed:
                    rows[i] = normalize_stage(new[i], factors[i], scenario)
                out._views[scenario] = tuple(rows)
        return out

    def _volume_factors(self) -> tuple[VolumeRatio, ...]:
        """The volume factor entering each stage (computed once)."""
        if self._factors is None:
            object.__setattr__(
                self,
                "_factors",
                tuple(cumulative_volume_factors([s.volume_ratio for s in self.stages])),
            )
        return self._factors

    def subchain(self, start: str, stop: str) -> "Pipeline":
        """The contiguous sub-pipeline from ``start`` to ``stop`` inclusive."""
        i, j = self.stage_index(start), self.stage_index(stop)
        if j < i:
            raise ValueError(f"{stop!r} precedes {start!r} in the flow")
        return Pipeline(
            f"{self.name}[{start}..{stop}]", self.source, self.stages[i : j + 1]
        )

    def __len__(self) -> int:
        return len(self.stages)
