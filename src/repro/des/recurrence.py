"""Max-plus recurrence engine for pipelines with unbounded queues.

With unbounded inter-stage queues nothing downstream can stall a stage:
every stage is a FIFO single server fed by its upstream's departures.
Job ``k`` of a stage starts at

    start[k] = max(end[k-1], ready[k]),    end[k] = start[k] + s[k]

with ``ready[k]`` the arrival of the upstream unit that completes the
job's ``consume`` bytes and ``s[k]`` the stage's ``k``-th service draw.
This is the Lindley recurrence.  Unrolled,
``end[k] = max_{j<=k} (ready[j] + s[j] + ... + s[k])``: a (max, +)
convolution over the job index, of the form
:func:`repro.nc.maxplus.max_convolve` computes on curves, and the
time-domain dual of the byte-domain (min, +) ``alpha (*) beta`` the
analysis bounds.  Stages are solved one after the other, each from the
departure record of the one before, so no event heap, process or
callback is involved.

Bit-identity with the event loop
--------------------------------
:meth:`~repro.des.pipeline_sim.PipelineSimulation.run` picks this
engine by itself, so it reproduces the event loop's
:class:`~repro.des.report.SimulationReport` exactly, not within a
tolerance:

* every float comes from the same operations in the same order: source
  times accumulate ``t += gap``, each job ends at ``start + s``, busy
  time and byte counts add up job by job.  A vectorized scan
  (``cumsum`` + ``maximum.accumulate``) would reassociate the additions
  and is therefore not used;
* each input queue replays :class:`~repro.des.pipeline_sim.ByteQueue`'s
  accounting: the fragment FIFO, its drifting byte counter with the
  1e-9 clamp, and the serve / whole-fragment tolerances;
* service times come from the stage's own ``SeedSequence`` stream in
  job order; a distribution's ``batch`` sampler draws them in blocks
  that reproduce its scalar draws.

The event loop orders simultaneous events by when they were scheduled,
which the recurrence does not track.  Where a stage asks for its next
job at the very instant upstream units arrive, or the source and the
sink change the backlog at one instant, it evaluates every order the
event loop could take.  They agree unless float rounding makes the
order observable; then :func:`simulate_recurrence` returns ``None`` and
the caller runs the event loop.  So it does for zero-length jobs and
source gaps below the clock's resolution.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Iterator, Sequence

import numpy as np

from .monitor import CumulativeFlow, DelayStats, StepSeries
from .report import SimulationReport, StageStats

__all__ = ["SERVE_TOL", "WHOLE_TOL", "emit_chunk", "simulate_recurrence"]

#: a queue serves ``get(n)`` once it counts ``n * SERVE_TOL`` bytes
SERVE_TOL = 1 - 1e-12
#: a fragment within ``WHOLE_TOL`` of the remaining request is taken whole
WHOLE_TOL = 1 + 1e-12
#: first block of batched service draws (later blocks double)
_DRAW_BLOCK = 64

#: an input unit: ``(size, born_first, born_last)``
Frag = tuple[float, float, float]


def emit_chunk(emit: float, remaining: float) -> float:
    """Size of a job's next output chunk.

    ``emit``, or the whole remainder once that is within
    :data:`WHOLE_TOL` of ``emit``.  A queue takes a fragment whole when
    it is within that tolerance of the request, so a job can carry a few
    nanobytes more than a multiple of ``emit``; folded into the last
    chunk, that excess cannot become a chunk of its own which downstream
    would drop or serve as an extra job.
    """
    return remaining if remaining <= emit * WHOLE_TOL else emit


class _OrderDependent(Exception):
    """The outcome hinges on how the event loop orders one instant."""


class _Fifo:
    """A :class:`ByteQueue`'s byte accounting, replayed without a clock.

    Also tracks the high-water mark of its occupancy step series the way
    :class:`~repro.des.monitor.StepSeries` keeps it: the last write at an
    instant replaces the earlier ones, so an instant counts with the
    level it closes at.
    """

    __slots__ = ("frags", "bytes", "t", "peak")

    def __init__(self) -> None:
        self.frags: deque[Frag] = deque()
        self.bytes = 0.0
        self.t = 0.0  # the open instant
        self.peak = -math.inf  # over closed instants

    def clone(self) -> "_Fifo":
        other = _Fifo()
        other.frags = deque(self.frags)
        other.bytes, other.t, other.peak = self.bytes, self.t, self.peak
        return other

    def _at(self, t: float) -> None:
        if t != self.t:
            if self.bytes > self.peak:
                self.peak = self.bytes
            self.t = t

    def admit(self, t: float, frag: Frag) -> None:
        self._at(t)
        self.frags.append(frag)
        self.bytes += frag[0]

    def admit_before(self, units: Sequence[tuple[float, Frag]], u: int, t: float) -> int:
        """:meth:`admit` ``units[u:]`` up to the first arriving at or after
        ``t``; returns that unit's index."""
        append = self.frags.append
        level, now, peak = self.bytes, self.t, self.peak
        n = len(units)
        while u < n:
            at, frag = units[u]
            if at >= t:
                break
            if at != now:
                if level > peak:
                    peak = level
                now = at
            append(frag)
            level += frag[0]
            u += 1
        self.bytes, self.t, self.peak = level, now, peak
        return u

    def take(self, t: float, n: float) -> tuple[list[Frag], float]:
        """``ByteQueue._take``: the first ``n`` bytes and their total."""
        self._at(t)
        frags = self.frags
        out: list[Frag] = []
        remaining = n
        while remaining > 0 and frags:
            head = frags[0]
            if head[0] <= remaining * WHOLE_TOL:
                out.append(frags.popleft())
                remaining -= head[0]
            else:
                out.append((remaining, head[1], head[2]))
                frags[0] = (head[0] - remaining, head[1], head[2])
                remaining = 0.0
        taken = sum(p[0] for p in out)
        self.bytes -= taken
        if self.bytes < 1e-9:
            self.bytes = 0.0
        return out, taken

    def high_water(self) -> float:
        return max(self.peak, self.bytes)


def _draws(service: Any, rng: np.random.Generator) -> Iterator[float]:
    """The stage's service times, in the order its scalar draws give them."""
    batch = getattr(service, "batch", None)
    if batch is None:
        while True:
            yield service(rng)
    n = _DRAW_BLOCK
    while True:
        yield from batch(rng, n)
        n *= 2


def _source(sim: Any) -> tuple[list[tuple[float, Frag]], float]:
    """The source's packets as ``(admission time, frag)``, and its close time."""
    packet, workload = sim.source_packet, sim.workload
    units: list[tuple[float, Frag]] = []
    sent = 0.0
    burst_left = min(sim.source_burst, workload)
    while burst_left > 0:
        p = min(packet, burst_left)
        units.append((0.0, (p, 0.0, 0.0)))
        sent += p
        burst_left -= p
    now = 0.0
    gap = packet / sim.source_rate
    while sent < workload * (1 - 1e-12):
        t = now + gap
        if t == now:
            raise _OrderDependent("source gap below the clock's resolution")
        now = t
        p = min(packet, workload - sent)
        units.append((now, (p, now, now)))
        sent += p
    return units, now


def _settle_instant(
    q: _Fifo, units: Sequence[tuple[float, Frag]], u: int, t: float, consume: float
) -> int:
    """Admit the units arriving at ``t`` that the stage's get at ``t`` sees.

    The get and upstream's admissions at the same instant may come in
    any order in the event loop.  Orders that differ only before the
    queue reaches its serve level are equivalent; every later position
    of the get is evaluated, and they must agree.  Returns the index of
    the first unit left for the caller to admit.
    """
    end = u
    while end < len(units) and units[end][0] == t:
        end += 1
    need = consume * SERVE_TOL
    level = q.bytes
    ready = 0
    while level < need and ready < end - u:
        level += units[u + ready][1][0]
        ready += 1
    if level < need or ready == end - u:
        return u  # the get waits for (at least) the last unit of the instant
    outcomes = set()
    for split in range(ready, end - u + 1):
        trial = q.clone()
        for k in range(u, u + split):
            trial.admit(t, units[k][1])
        taken = tuple(trial.take(t, consume)[0])
        for k in range(u + split, end):
            trial.admit(t, units[k][1])
        outcomes.add((taken, tuple(trial.frags), trial.bytes))
    if len(outcomes) > 1:
        raise _OrderDependent(f"simultaneous arrivals at t={t!r}")
    for k in range(u, u + ready):
        q.admit(t, units[k][1])
    return u + ready


def _run_stage(
    stage: Any,
    rng: np.random.Generator,
    units: Sequence[tuple[float, Frag]],
    closed_at: float,
) -> tuple[list[tuple[float, Frag]], float, tuple[int, float, float, list[float]]]:
    """Replay one stage over its input.

    Returns its departures in emission order, the time it exits (closing
    its output), and ``(jobs, busy time, queue high-water mark, service
    durations)``.
    """
    q = _Fifo()
    consume = stage.consume
    need = consume * SERVE_TOL
    emit = stage.emit_bytes
    draws = _draws(stage.service, rng)
    out: list[tuple[float, Frag]] = []
    durations: list[float] = []
    jobs = 0
    busy = 0.0
    started = False
    n_units = len(units)
    u = 0
    free = 0.0  # when the stage asks for its next job
    fold = emit * WHOLE_TOL  # emit_chunk's threshold (inlined below)
    while True:
        # units that arrived while the previous job ran
        u = q.admit_before(units, u, free)
        if started and u < n_units and units[u][0] == free:
            u = _settle_instant(q, units, u, free, consume)
        eof = False
        if q.bytes >= need:
            start = free
            frags, job_bytes = q.take(start, consume)
        else:
            # the unit that completes the job's bytes starts it
            while u < n_units:
                t, frag = units[u]
                u += 1
                q.admit(t, frag)
                if q.bytes >= need:
                    start = t
                    frags, job_bytes = q.take(start, consume)
                    break
            else:
                # upstream closed: what is left is the last job
                start = max(free, closed_at)
                frags, job_bytes = q.take(start, q.bytes)
                eof = True
        if not frags:
            exit_at = start
            break
        # birth stamps never decrease along a stream (the source stamps
        # its clock, each job the extremes of a FIFO run), so the job's
        # oldest byte is in its first fragment and its newest in its last
        born_first = frags[0][1]
        born_last = frags[-1][2]
        s = next(draws)
        if not started:
            s += stage.startup_latency
            started = True
        end = start + s
        if not end > start:
            raise _OrderDependent("zero-length job")
        busy += s
        jobs += 1
        durations.append(end - start)
        remaining = job_bytes
        while remaining > 0:
            chunk = remaining if remaining <= fold else emit  # emit_chunk
            out.append((end, (chunk, born_first, born_last)))
            remaining -= chunk
        if eof:
            exit_at = end
            break
        free = end
    return out, exit_at, (jobs, busy, q.high_water(), durations)


def _backlog(
    source: Sequence[tuple[float, Frag]], sink: Sequence[tuple[float, Frag]]
) -> StepSeries:
    """Bytes in the system over time: source admissions minus departures.

    A departure job and a source packet at one instant are applied in
    both orders; the value must not depend on it.
    """
    times, values = [0.0], [0.0]
    n_src, n_sink = len(source), len(sink)
    i = j = 0
    while i < n_src or j < n_sink:
        ts = source[i][0] if i < n_src else math.inf
        td = sink[j][0] if j < n_sink else math.inf
        v = values[-1]
        if ts < td:
            v += source[i][1][0]
            i += 1
            t = ts
        else:
            t = td
            k = j
            while k < n_sink and sink[k][0] == td:
                v -= sink[k][1][0]
                k += 1
            if ts == td:
                other = values[-1] + source[i][1][0]
                for m in range(j, k):
                    other -= sink[m][1][0]
                v += source[i][1][0]
                if other != v:
                    raise _OrderDependent(f"source and sink at t={t!r}")
                i += 1
            j = k
        if t == times[-1]:
            values[-1] = v
        else:
            times.append(t)
            values.append(v)
    return StepSeries.from_samples(times, values)


def _flow(records: Sequence[tuple[float, Frag]]) -> CumulativeFlow:
    """``CumulativeFlow.add`` over ``(time, frag)`` records."""
    times, cum = [0.0], [0.0]
    for t, frag in records:
        if t == times[-1]:
            cum[-1] += frag[0]
        else:
            times.append(t)
            cum.append(cum[-1] + frag[0])
    return CumulativeFlow.from_samples(times, cum)


def simulate_recurrence(sim: Any) -> SimulationReport | None:
    """Run ``sim`` (a :class:`PipelineSimulation` with unbounded queues
    and deterministic pacing) as a recurrence.

    Returns the report the event loop would produce, or ``None`` when
    that report depends on how the event loop orders simultaneous
    events (see the module docstring).
    """
    try:
        return _simulate(sim)
    except _OrderDependent:
        return None


def _simulate(sim: Any) -> SimulationReport:
    streams = np.random.SeedSequence(sim.seed).spawn(len(sim.stages) + 1)
    source, closed_at = _source(sim)
    units = source
    per_stage = []
    for stage, stream in zip(sim.stages, streams[1:]):
        units, closed_at, observed = _run_stage(
            stage, np.random.default_rng(stream), units, closed_at
        )
        per_stage.append(observed)
    sink = units
    makespan = closed_at
    stats = [
        StageStats(
            name=stage.name,
            jobs=jobs,
            busy_time=busy,
            utilization=(busy / makespan) if makespan > 0 else 0.0,
            max_queue_bytes=high_water,
            service_times=np.asarray(durations, dtype=float),
        )
        for stage, (jobs, busy, high_water, durations) in zip(sim.stages, per_stage)
    ]
    backlog = _backlog(source, sink)
    arrivals = _flow(source)
    departures = _flow(sink)
    return SimulationReport(
        makespan=makespan,
        input_bytes=arrivals.total,
        output_bytes=departures.total,
        arrivals=arrivals,
        departures=departures,
        delays_first=DelayStats.from_values([t - f[1] for t, f in sink]),
        delays_last=DelayStats.from_values([t - f[2] for t, f in sink]),
        max_backlog_bytes=backlog.max,
        backlog=backlog,
        stages=stats,
    )
