"""Helpers shared by the benchmark's workloads.

Paths, the cross-process clock, the host-speed probe, order statistics,
process-tree accounting from ``/proc``, and the result line the
benchmark prints.  Nothing here imports the program under test.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

#: the checkout root: the benchmark lives in ``<root>/perfbench``
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"
#: everything the benchmark writes (caches, traces) lives under here
OUT = ROOT / ".perfbench-out"
RECORDED = BENCH_DIR / "recorded.json"

#: the program's inputs come in this many recorded variants; the seed
#: picks one (``seed % VARIANTS``), so every seed has recorded outputs
VARIANTS = 100


def now() -> float:
    """A clock that is comparable across processes (CLOCK_MONOTONIC)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env(**extra: str) -> dict[str, str]:
    """Environment for a process that runs the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(extra)
    return env


def use_program() -> None:
    """Make ``import repro`` resolve to the checkout's source tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_dir(prefix: str) -> Path:
    """A fresh, empty directory under :data:`OUT`."""
    base = OUT / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=base))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def dir_bytes(path: Path) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


# --------------------------------------------------------------------- #
# machine speed
# --------------------------------------------------------------------- #

#: loop turns of one :func:`probe`, and the CPU seconds they take at the
#: reference speed the speed-bound metrics are reported in
PROBE_LOOPS = 10_000
PROBE_REF_S = 0.00095


def probe() -> float:
    """CPU seconds this thread spends on a fixed short loop, now.

    On a shared host the same instructions take longer when neighbours
    are busy, in this process and in the program's alike.  Taken in
    the thread's own CPU time, the sample ignores time the thread waits
    for a CPU, so the benchmark's own load does not move it.
    """
    t0 = time.thread_time()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.thread_time() - t0


def slowdown(samples: Sequence[float]) -> float:
    """How much slower than the reference the host ran the probes."""
    return median(samples) / PROBE_REF_S


# --------------------------------------------------------------------- #
# order statistics
# --------------------------------------------------------------------- #


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]) of ``values``."""
    if not values:
        return math.nan
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else math.nan


# --------------------------------------------------------------------- #
# process trees (Linux /proc)
# --------------------------------------------------------------------- #

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> "list[str] | None":
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name may hold spaces: split after its closing paren
    return raw[raw.rindex(")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant of it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def start_time(pid: int) -> "int | None":
    """The process's start time in ticks; with the pid it names one process."""
    fields = _stat_fields(pid)
    return None if fields is None else int(fields[19])


def tree_cpu_s(root: int) -> float:
    """User + system CPU seconds of the tree, reaped children included."""
    total = 0
    for pid in process_tree(root):
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime, cutime, cstime (proc(5) fields 14-17)
            total += sum(int(f) for f in fields[11:15])
    return total / _TICK


def tree_peak_rss_mb(root: int) -> float:
    """Summed peak resident set (VmHWM) of the live tree, in MiB."""
    total_kb = 0
    for pid in process_tree(root):
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
        except OSError:
            pass
    return total_kb / 1024.0


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_table(title: str, rows: Iterable[tuple[str, Any, str]]) -> None:
    """Human-readable ``name value unit`` lines (``None`` prints null)."""
    print(f"== {title} ==")
    for name, value, unit in rows:
        shown = "null" if value is None else (
            f"{value:.6g}" if isinstance(value, float) else str(value)
        )
        print(f"  {name:<26} {shown:>14} {unit}")


def result_line(
    *,
    correct: bool,
    attempted: int,
    failed: int,
    values: Mapping[str, "float | int | None"],
    metrics: Sequence[Mapping[str, Any]],
) -> str:
    """The closing JSON line: one entry per metric named in ``metrics``.

    A metric the run could not measure (no public counter, or a layer
    the workload does not use) reads 0 here; the table printed before
    this line shows it as null.
    """
    out = {}
    for m in metrics:
        value = values.get(m["name"])
        if value is None or (isinstance(value, float) and not math.isfinite(value)):
            value = 0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": out,
    })
