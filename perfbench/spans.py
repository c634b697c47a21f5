"""Wall-clock spans around the program's public entry points.

The traced run of a batch workload replaces a fixed list of public
functions with wrappers that record one span per call: its name, start,
end, the span that was open when it was called (its parent) and the id
of the sweep point it belongs to.  Spans stay in memory and are written
once, after the timed region, as Chrome/Perfetto trace-event JSON.

A span's self time is its duration minus the time its children cover.
Every wrapped call runs on one thread and children nest inside their
parent, so the self times of all spans add up to the root span: the
benchmark's timed region.  The root and the sweep/scenario runners have
no layer of their own; their self time is the un-attributed remainder
(``sweep.self_s``).
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from common import now

#: (module, attribute, span name).  A dotted attribute wraps a method.
#: ``evaluate_point`` and ``analyze`` are bound by name in more than one
#: module, so each binding is wrapped.
ENTRY_POINTS = (
    ("repro.sweep", "run_sweep", "sweep.run"),
    ("repro.scenarios", "run_catalog", "scenarios.run"),
    ("repro.sweep.runner", "evaluate_point", "sweep.point"),
    ("repro.scenarios.runner", "evaluate_point", "sweep.point"),
    ("repro.sweep.cache", "ResultCache.get", "sweep.cache_get"),
    ("repro.sweep.cache", "ResultCache.put", "sweep.cache_put"),
    ("repro.streaming", "analyze", "nc.analyze"),
    ("repro.telemetry.conformance", "analyze", "nc.analyze"),
    ("repro.streaming", "simulate", "des.simulate"),
    ("repro.telemetry", "valid_bounds", "conformance.bounds"),
    ("repro.telemetry", "evaluate_conformance", "conformance.replay"),
    ("repro.telemetry", "check_arrivals", "conformance.replay"),
    ("repro.scenarios.runner", "judge_scenario", "scenarios.judge"),
)

#: span names whose self time is the un-attributed remainder
REMAINDER = ("workload", "sweep.run", "scenarios.run", "sweep.point")


class Spans:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.points: list["str | None"] = []
        self.labels: dict[int, Any] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._n_points = 0

    def _open(self, name: str) -> int:
        i = len(self.starts)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.points.append(self.points[parent] if parent >= 0 else None)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(now())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = now()
        self._stack.pop()

    @contextmanager
    def root(self, name: str = "workload") -> Iterator[None]:
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        after = _AFTER.get(name)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            i = self._open(name)
            if name == "sweep.point":
                self.points[i] = f"p{self._n_points}"
                self.labels[i] = args[1] if len(args) > 1 else kwargs.get("params")
                self._n_points += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(self, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        """Wrap every entry point that exists in the program."""
        for module_name, attr, span_name in ENTRY_POINTS:
            try:
                owner: Any = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.skipped.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(fn, span_name))

    # ---------------------------------------------------------------- #
    # reductions
    # ---------------------------------------------------------------- #

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        covered = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += self.ends[i] - self.starts[i] - covered[i]
        return dict(out)

    def calls(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def write_chrome(self, path: Path) -> None:
        """Trace-event JSON (complete events, microseconds from the root)."""
        t0 = self.starts[0] if self.starts else 0.0
        events = [{
            "name": "thread_name", "cat": "__metadata", "ph": "M", "ts": 0.0,
            "pid": 0, "tid": 0, "args": {"name": "benchmark"},
        }]
        for i, name in enumerate(self.names):
            args: dict[str, Any] = {"span": i, "parent": self.parents[i]}
            if self.points[i] is not None:
                args["point"] = self.points[i]
            if i in self.labels:
                args["params"] = self.labels[i]
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": (self.starts[i] - t0) * 1e6,
                "dur": (self.ends[i] - self.starts[i]) * 1e6,
                "pid": 0, "tid": 0, "args": args,
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms",
             "otherData": {"spans": len(self.names), "skipped": self.skipped}},
            sort_keys=True, separators=(",", ":"), default=str,
        ) + "\n")


def _count_jobs(spans: Spans, report: Any) -> None:
    spans.counts["des.jobs"] += sum(int(s.jobs) for s in getattr(report, "stages", ()))


def _count_checks(spans: Spans, result: Any) -> None:
    spans.counts["scenarios.checks"] += len(getattr(result, "checks", ()))


_AFTER = {"des.simulate": _count_jobs, "scenarios.judge": _count_checks}
