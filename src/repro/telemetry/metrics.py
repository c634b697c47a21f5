"""Metrics: counters, gauges, fixed-bucket histograms, and a registry.

The registry captures what the DES aggregates throw away: per-stage
service-time *distributions*, per-job end-to-end latency distributions,
and queue-occupancy extrema.  Everything is fixed-allocation — a
histogram is a list of counts over a tuple of bucket edges — so the
instrumented hot path does a ``bisect`` and an increment, never an
append.  Only :meth:`Histogram.observe_many` imports NumPy, to bucket a
whole array at once.

:class:`SimMetrics` adapts the registry to the
:class:`~repro.telemetry.probe.SimProbe` protocol; snapshots are plain
JSON-able dicts so they flow into sweep artifacts unchanged.
:func:`report_summaries` computes the sweep's two summaries from a
finished :class:`~repro.des.report.SimulationReport` instead, equal to
what the probe would have collected, so unprobed runs keep them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Any, Iterable, Mapping

from .probe import SimProbe

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SimMetrics",
    "log_bucket_edges",
    "report_summaries",
]


def log_bucket_edges(
    lo: float = 1e-7, hi: float = 1e3, per_decade: int = 3
) -> tuple[float, ...]:
    """Geometric bucket edges spanning ``[lo, hi]``.

    The default (100 ns .. 1000 s, 3 per decade) covers every service
    time and latency in the paper's two applications with ~31 buckets.
    """
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    n = int(round(math.log10(hi / lo) * per_decade)) + 1
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return tuple(lo * ratio**i for i in range(n))


class Counter:
    """A monotonically increasing count (events, bytes, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A settable level; tracks the extremes it visited."""

    __slots__ = ("value", "max", "min", "updates")

    def __init__(self) -> None:
        self.value = 0.0
        self.max = -math.inf
        self.min = math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value

    def snapshot(self) -> dict[str, Any]:
        empty = self.updates == 0
        return {
            "type": "gauge",
            "value": self.value,
            "max": None if empty else self.max,
            "min": None if empty else self.min,
            "updates": self.updates,
        }


class Histogram:
    """Fixed-bucket histogram with under/overflow buckets and moments.

    ``edges`` (length ``k``) define ``k + 1`` counts: bucket 0 is the
    underflow ``(-inf, edges[0])``, bucket ``i`` covers
    ``[edges[i-1], edges[i])``, and the last is the overflow
    ``[edges[-1], inf)``.  Exact min/max/sum/count ride along so the
    extremes are never quantised away.
    """

    __slots__ = ("edges", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, edges: Iterable[float]) -> None:
        e = tuple(map(float, edges))
        if len(e) < 2:
            raise ValueError("need at least two bucket edges")
        if not all(b > a for a, b in zip(e, e[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.edges = e
        self.counts = [0] * (len(e) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def observe_many(self, values: Iterable[float]) -> None:
        """:meth:`observe` each value, in order, in one pass.

        Counts and extremes come out vectorized; the running total still
        adds left to right (not pairwise, not compensated), so it equals
        the one ``observe`` calls would leave.
        """
        import numpy as np

        v = np.asarray(values, dtype=float)
        if v.size == 0:
            return
        idx = np.searchsorted(self.edges, v, side="right")
        bins = np.bincount(idx, minlength=len(self.counts)).tolist()
        self.counts = [c + n for c, n in zip(self.counts, bins)]
        self.count += int(v.size)
        total = self.total
        for x in v.tolist():
            total += x
        self.total = total
        self.vmin = min(self.vmin, float(v.min()))
        self.vmax = max(self.vmax, float(v.max()))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Bucket-upper-edge estimate of the ``q``-quantile (0..1)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return math.nan
        i = bisect_left(list(accumulate(self.counts)), q * self.count)
        if i == 0:
            return self.edges[0]
        if i >= len(self.edges):
            return self.vmax
        return self.edges[i]

    def nonempty_buckets(self) -> list[tuple[float, float, int]]:
        """``(lo, hi, count)`` for buckets holding at least one sample."""
        out: list[tuple[float, float, int]] = []
        lo = -math.inf
        for i, c in enumerate(self.counts):
            hi = self.edges[i] if i < len(self.edges) else math.inf
            if c:
                out.append((lo, hi, c))
            lo = hi
        return out

    def snapshot(self) -> dict[str, Any]:
        empty = self.count == 0
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": None if empty else self.mean,
            "min": None if empty else self.vmin,
            "max": None if empty else self.vmax,
            "p50": None if empty else self.quantile(0.5),
            "p99": None if empty else self.quantile(0.99),
            "edges": list(self.edges),
            "counts": list(self.counts),
        }


class MetricsRegistry:
    """Named metric instruments, created on first use.

    Re-requesting a name returns the existing instrument; requesting it
    as a different type is an error (names are global within a run).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type, factory) -> Any:
        m = self._metrics.get(name)
        if m is None:
            m = factory()
            self._metrics[name] = m
        elif not isinstance(m, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(m).__name__}"
            )
        return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, Gauge)

    def histogram(self, name: str, edges: Iterable[float] | None = None) -> Histogram:
        return self._get(
            name, Histogram, lambda: Histogram(edges or log_bucket_edges())
        )

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> "Counter | Gauge | Histogram":
        return self._metrics[name]

    def snapshot(self) -> dict[str, Any]:
        """All instruments as one JSON-able dict, sorted by name."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def summary(self, *, width: int = 46) -> str:
        """Terminal rendering: scalar lines plus ASCII histograms."""
        from ..units import format_seconds
        from ..viz.ascii_plot import ascii_histogram

        lines: list[str] = ["== metrics =="]
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, Counter):
                lines.append(f"{name:<34} {m.value:g}")
            elif isinstance(m, Gauge):
                hi = "-" if m.updates == 0 else f"{m.max:g}"
                lines.append(f"{name:<34} {m.value:g} (max {hi})")
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, Histogram) and m.count:
                lines.append("")
                lines.append(
                    ascii_histogram(
                        m.nonempty_buckets(),
                        title=(
                            f"{name}  n={m.count} mean={format_seconds(m.mean)} "
                            f"max={format_seconds(m.vmax)}"
                        ),
                        width=width,
                        fmt=format_seconds,
                    )
                )
        return "\n".join(lines)


class SimMetrics(SimProbe):
    """Probe adapter: fills a :class:`MetricsRegistry` from a DES run.

    Captured series (all names stable, for artifact consumers):

    * ``source.packets`` / ``source.bytes`` — counters;
    * ``stage.<name>.service_s`` — per-stage service-time histogram;
    * ``stage.<name>.jobs`` / ``stage.<name>.bytes`` — counters;
    * ``queue.<name>.bytes`` — occupancy gauge (max = high-water mark);
    * ``job.latency_s`` — end-to-end latency histogram (oldest-byte
      convention, the one the NC delay bound constrains);
    * ``sink.bytes`` — counter.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def queue_level(self, queue: str, t: float, level: float) -> None:
        self.registry.gauge(f"queue.{queue}.bytes").set(level)

    def source_packet(self, t: float, nbytes: float) -> None:
        self.registry.counter("source.packets").inc()
        self.registry.counter("source.bytes").inc(nbytes)

    def job_end(
        self, stage: str, t_start: float, t_end: float, nbytes: float, first: bool
    ) -> None:
        self.registry.histogram(f"stage.{stage}.service_s").observe(t_end - t_start)
        self.registry.counter(f"stage.{stage}.jobs").inc()
        self.registry.counter(f"stage.{stage}.bytes").inc(nbytes)

    def sink_departure(
        self, t: float, nbytes: float, born_first: float, born_last: float
    ) -> None:
        self.registry.histogram("job.latency_s").observe(t - born_first)
        self.registry.counter("sink.bytes").inc(nbytes)

    # convenience passthroughs ------------------------------------------ #

    def snapshot(self) -> dict[str, Any]:
        return self.registry.snapshot()

    def summary(self) -> str:
        return self.registry.summary()


def report_summaries(report: Any) -> dict[str, Any]:
    """The sweep's metric summaries of one finished simulation.

    ``job_latency`` summarizes the oldest-byte end-to-end latency of
    every departure (``None`` when nothing departed); ``stage_service``
    has one row per stage that completed a job.  Each comes from the
    histogram :class:`SimMetrics` would fill (same buckets, same
    observation order), bulk-filled from the report, so the values are
    bit-identical to a probed run's.
    """
    job_latency = None
    if report.delays_first.count:
        latency = Histogram(log_bucket_edges())
        latency.observe_many(report.delays_first.as_array())
        snap = latency.snapshot()
        job_latency = {k: snap[k] for k in ("count", "mean", "max", "p99")}
    service: dict[str, Mapping[str, Any]] = {}
    # SimMetrics keys rows by metric name, so order them the same way
    for stage in sorted(report.stages, key=lambda s: f"stage.{s.name}.service_s"):
        if len(stage.service_times):
            h = Histogram(log_bucket_edges())
            h.observe_many(stage.service_times)
            service[stage.name] = {
                "count": h.count,
                "mean_s": h.mean,
                "max_s": h.vmax,
                "p99_s": h.quantile(0.99),
            }
    return {"job_latency": job_latency, "stage_service": service}
