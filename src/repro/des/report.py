"""Result containers for pipeline simulations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..units import format_bytes, format_rate, format_seconds

if TYPE_CHECKING:  # pragma: no cover
    from .monitor import CumulativeFlow, DelayStats, StepSeries

__all__ = ["StageStats", "SimulationReport"]


@dataclass(frozen=True)
class StageStats:
    """Per-stage simulation statistics."""

    name: str
    jobs: int
    busy_time: float
    utilization: float
    max_queue_bytes: float
    #: per-job service durations (``end - start``, seconds), in job order
    service_times: np.ndarray = field(
        default_factory=lambda: np.empty(0), repr=False, compare=False
    )


@dataclass(frozen=True)
class SimulationReport:
    """Everything observed during one pipeline simulation run.

    ``delays_first`` tracks ``departure - entry of the job's oldest
    byte`` (the conservative end-to-end delay); ``delays_last`` the same
    for the newest byte.  ``throughput`` is the input-referred
    end-to-end rate over the makespan, the quantity the paper's tables
    report.
    """

    makespan: float
    input_bytes: float
    output_bytes: float
    arrivals: "CumulativeFlow"
    departures: "CumulativeFlow"
    delays_first: "DelayStats"
    delays_last: "DelayStats"
    max_backlog_bytes: float
    backlog: "StepSeries"
    stages: list[StageStats]
    #: :meth:`virtual_delay_samples` already computed, by its arguments
    _virtual_delays: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def throughput(self) -> float:
        """Mean input-referred output rate over the whole run (bytes/s)."""
        if self.makespan <= 0:
            return 0.0
        return self.output_bytes / self.makespan

    @property
    def steady_state_throughput(self) -> float:
        """Rate measured from first output to last output (excludes fill time)."""
        times, cum = self.departures.arrays()
        if len(times) < 3 or times[-1] <= times[1]:
            return self.throughput
        return float((cum[-1] - cum[1]) / (times[-1] - times[1]))

    @property
    def longest_delay(self) -> float:
        """Longest observed end-to-end delay (oldest-byte convention)."""
        return self.delays_first.max

    @property
    def shortest_delay(self) -> float:
        """Shortest observed end-to-end delay (newest-byte convention)."""
        return self.delays_last.min

    def observed_virtual_delays(
        self, levels: int = 512, skip_initial_fraction: float = 0.0
    ) -> "DelayStats":
        """Virtual delays observed between the cumulative input and output.

        The virtual delay at backlog level ``y`` is
        ``t_departure(y) - t_arrival(y)`` — the time for the output
        cumulative function to catch up with the input at level ``y``.
        This is the quantity the network-calculus bound ``d`` constrains,
        and the one the paper's simulator reports as its
        longest/shortest observed delay.  Sampled at ``levels`` evenly
        spaced byte levels up to the exact total;
        ``skip_initial_fraction`` discards the pipeline-fill transient
        (steady-state observation, as the paper's tight min/max delay
        window implies).
        """
        from .monitor import DelayStats

        delays, _ = self.virtual_delay_samples(levels, skip_initial_fraction)
        return DelayStats.from_values(delays.tolist())

    def virtual_delay_samples(
        self, levels: int = 512, skip_initial_fraction: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(delays, departure_times)`` at the byte levels of
        :meth:`observed_virtual_delays`, each level's delay with the time
        its last byte departed; empty when nothing departed.

        Computed once per ``(levels, skip_initial_fraction)`` and kept
        (read-only), so the report's summary and the conformance delay
        check share one computation.
        """
        key = (levels, skip_initial_fraction)
        if key not in self._virtual_delays:
            self._virtual_delays[key] = self._sample_virtual_delays(*key)
        return self._virtual_delays[key]

    def _sample_virtual_delays(
        self, levels: int, skip_initial_fraction: float
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.output_bytes <= 0:
            return np.empty(0), np.empty(0)
        if not 0.0 <= skip_initial_fraction < 1.0:
            raise ValueError("skip_initial_fraction must be in [0, 1)")
        at, ac = self.arrivals.arrays()
        dt, dc = self.departures.arrays()
        y0 = max(self.output_bytes / levels, self.output_bytes * skip_initial_fraction)
        ys = np.linspace(y0, self.output_bytes, levels)
        # first time each cumulative step-function reaches >= y: steps jump
        # AT their recorded times, so searchsorted on the cumulative values
        # returns the index of the reaching step.
        ai = np.clip(np.searchsorted(ac, ys - 1e-9, side="left"), 0, len(at) - 1)
        di = np.clip(np.searchsorted(dc, ys - 1e-9, side="left"), 0, len(dt) - 1)
        t_out = dt[di]
        delays = np.maximum(0.0, t_out - at[ai])
        delays.flags.writeable = t_out.flags.writeable = False
        return delays, t_out

    def conservation_ok(self, tol: float = 1e-6) -> bool:
        """Check byte conservation: everything injected eventually departed."""
        return abs(self.input_bytes - self.output_bytes) <= tol * max(
            1.0, self.input_bytes
        )

    def bottleneck(self) -> StageStats:
        """The stage with the highest utilization."""
        return max(self.stages, key=lambda s: s.utilization)

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"makespan           {format_seconds(self.makespan)}",
            f"volume             {format_bytes(self.input_bytes)} in / "
            f"{format_bytes(self.output_bytes)} out",
            f"throughput         {format_rate(self.throughput)}",
            f"delay (min..max)   {format_seconds(self.shortest_delay)} .. "
            f"{format_seconds(self.longest_delay)}",
            f"max backlog        {format_bytes(self.max_backlog_bytes)}",
            "stages:",
        ]
        for s in self.stages:
            lines.append(
                f"  {s.name:<16} jobs={s.jobs:<8} util={s.utilization:6.1%} "
                f"max queue={format_bytes(s.max_queue_bytes)}"
            )
        return "\n".join(lines)
