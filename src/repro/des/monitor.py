"""Instrumentation for simulations: step series, flows, delay stats.

The paper's simulator reports (i) a cumulative-output stair-step curve,
(ii) longest/shortest observed end-to-end delays and (iii) the maximum
total data resident in the system.  These recorders collect exactly
that, with NumPy-array export for the figure benches.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["StepSeries", "CumulativeFlow", "DelayStats"]


class StepSeries:
    """A piecewise-constant time series (e.g. backlog level over time)."""

    def __init__(self, initial: float = 0.0, t0: float = 0.0) -> None:
        self._times: list[float] = [t0]
        self._values: list[float] = [float(initial)]

    @classmethod
    def from_samples(cls, times: list[float], values: list[float]) -> "StepSeries":
        """A series from recorded samples: strictly increasing times, one
        value per time (adopted as given, not copied or checked)."""
        series = cls.__new__(cls)
        series._times, series._values = times, values
        return series

    def record(self, t: float, value: float) -> None:
        """Set the series to ``value`` from time ``t`` on."""
        if t < self._times[-1]:
            raise ValueError(f"time went backwards: {t} < {self._times[-1]}")
        if t == self._times[-1]:
            self._values[-1] = float(value)
        else:
            self._times.append(float(t))
            self._values.append(float(value))

    def add(self, t: float, delta: float) -> None:
        """Increment the current value by ``delta`` at time ``t``."""
        self.record(t, self._values[-1] + delta)

    @property
    def value(self) -> float:
        """Current (latest) value."""
        return self._values[-1]

    @property
    def max(self) -> float:
        """Largest value ever recorded."""
        return max(self._values)

    @property
    def min(self) -> float:
        """Smallest value ever recorded."""
        return min(self._values)

    def time_average(self, until: float | None = None) -> float:
        """Time-weighted mean of the step function up to ``until``."""
        t_end = self._times[-1] if until is None else float(until)
        if t_end < self._times[0]:
            raise ValueError("until precedes the first sample")
        if t_end == self._times[0]:
            return self._values[0]
        total = 0.0
        for i in range(len(self._times)):
            t0 = self._times[i]
            t1 = self._times[i + 1] if i + 1 < len(self._times) else math.inf
            hi = min(t1, t_end)
            if hi > t0:
                total += self._values[i] * (hi - t0)
            if t1 >= t_end:
                break
        return total / (t_end - self._times[0])

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` as NumPy arrays."""
        return np.asarray(self._times), np.asarray(self._values)

    def __len__(self) -> int:
        return len(self._times)


class CumulativeFlow:
    """Cumulative byte count over time (the stair-step curves of Figs. 4/10)."""

    def __init__(self, t0: float = 0.0) -> None:
        self._times: list[float] = [t0]
        self._cum: list[float] = [0.0]
        self._arrays: "tuple[np.ndarray, np.ndarray] | None" = None

    @classmethod
    def from_samples(cls, times: list[float], cum: list[float]) -> "CumulativeFlow":
        """A flow from recorded samples: strictly increasing times and
        their running totals (adopted as given, not copied or checked)."""
        flow = cls.__new__(cls)
        flow._times, flow._cum, flow._arrays = times, cum, None
        return flow

    def add(self, t: float, nbytes: float) -> None:
        """Record ``nbytes`` moving past the observation point at time ``t``."""
        if nbytes < 0:
            raise ValueError("flow increments must be non-negative")
        if t < self._times[-1]:
            raise ValueError(f"time went backwards: {t} < {self._times[-1]}")
        self._arrays = None
        if t == self._times[-1]:
            self._cum[-1] += nbytes
        else:
            self._times.append(float(t))
            self._cum.append(self._cum[-1] + nbytes)

    @property
    def total(self) -> float:
        """Total bytes recorded."""
        return self._cum[-1]

    @property
    def last_time(self) -> float:
        """Time of the last recorded increment."""
        return self._times[-1]

    def throughput(self, t_start: float = 0.0, t_end: float | None = None) -> float:
        """Average rate over ``[t_start, t_end]`` (defaults to the whole trace)."""
        t1 = self._times[-1] if t_end is None else float(t_end)
        if t1 <= t_start:
            raise ValueError("empty observation window")
        c0 = float(np.interp(t_start, self._times, self._cum))
        c1 = float(np.interp(t1, self._times, self._cum))
        return (c1 - c0) / (t1 - t_start)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, cumulative_bytes)`` as read-only NumPy arrays, built
        once and kept until the next :meth:`add`."""
        if self._arrays is None:
            times, cum = np.array(self._times), np.array(self._cum)
            times.flags.writeable = cum.flags.writeable = False
            self._arrays = times, cum
        return self._arrays


class DelayStats:
    """Order statistics over observed per-job delays."""

    def __init__(self) -> None:
        self._delays: list[float] = []

    @classmethod
    def from_values(cls, delays: list[float]) -> "DelayStats":
        """Stats over already-observed non-negative delays (adopted as
        given, not copied or checked)."""
        stats = cls()
        stats._delays = delays
        return stats

    def record(self, delay: float) -> None:
        """Add one observed delay."""
        if delay < 0:
            raise ValueError("negative delay")
        self._delays.append(float(delay))

    @property
    def count(self) -> int:
        return len(self._delays)

    @property
    def min(self) -> float:
        """Shortest observed delay (``nan`` when empty)."""
        return min(self._delays) if self._delays else math.nan

    @property
    def max(self) -> float:
        """Longest observed delay (``nan`` when empty)."""
        return max(self._delays) if self._delays else math.nan

    @property
    def mean(self) -> float:
        """Mean observed delay (``nan`` when empty)."""
        return float(np.mean(self._delays)) if self._delays else math.nan

    def percentile(self, q: float) -> float:
        """``q``-th percentile (0-100) of the observed delays."""
        if not self._delays:
            return math.nan
        return float(np.percentile(self._delays, q))

    def as_array(self) -> np.ndarray:
        """All recorded delays, in observation order."""
        return np.asarray(self._delays)
