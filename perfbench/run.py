"""The benchmark's one command.

    python3 perfbench/run.py --workload sweep_nc --seed 1 --seconds 20 --trace 0

runs one workload and prints its metrics, by name and unit, followed by
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones from a traced run.  Without
``--workload`` it runs every workload in turn.  The exit code is 0 only
when every output check passed.  See ``perfbench/README.md`` for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from common import OUT, load_spec, print_table, program_present, remove_tree, result_line

WORKLOADS = ("sweep_nc", "catalog", "cluster_mix")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "cluster_mix":
        import cluster_mix

        return cluster_mix.run(seed, seconds, trace)
    import batch

    return batch.run(workload, seed, seconds, trace)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print("error: the program's source tree (src/repro) is not here",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    remove_tree(OUT / "tmp")
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            rec = run_workload(workload, args.seed, seconds, bool(args.trace))
        except Exception:  # noqa: BLE001 - a broken run prints no result line
            traceback.print_exc()
            return 2
        values = rec["values"]
        kind = "per-layer (traced)" if args.trace else "end-to-end"
        print_table(
            f"{workload} seed={args.seed} {kind}, {rec['reps']} repetitions",
            ((m["name"], values.get(m["name"]), m["unit"]) for m in metrics),
        )
        for note in rec["notes"]:
            print(f"  note: {note}")
        if rec["failed"]:
            status = 1
        print(result_line(
            correct=rec["failed"] == 0,
            attempted=rec["attempted"],
            failed=rec["failed"],
            values=values,
            metrics=metrics,
        ), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
