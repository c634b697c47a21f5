"""Config-matrix report (not gated): is the default NC configuration fastest?

Runs ``sweep_nc`` and ``catalog`` repetitions (fresh interpreters, as in
the gated runs) under every combination of ``REPRO_NC_BACKEND`` and
``REPRO_NC_KERNEL``, prints the median wall time of each, checks that
every configuration produces the recorded outputs, and says whether the
default configuration is the fastest::

    python3 perfbench/matrix.py [--seed 0] [--reps 3]

The exit code is non-zero only when an output check fails; a slower
default is reported, not asserted.
"""

from __future__ import annotations

import argparse
import json
import sys

from batch import judge, spawn
from common import RECORDED, child_env, median, program_present

#: (REPRO_NC_BACKEND, REPRO_NC_KERNEL); the first is the program default
CONFIGS = (("array", "1"), ("array", "0"), ("object", "1"), ("object", "0"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()
    if not program_present():
        print("error: the program's source tree (src/repro) is not here", file=sys.stderr)
        return 2
    recorded = json.loads(RECORDED.read_text())
    failed = 0
    for workload in ("sweep_nc", "catalog"):
        spawn(["--warm", workload, str(args.seed), "0", "-"])
        walls: dict[tuple[str, str], float] = {}
        print(f"== {workload} seed={args.seed}, median of {args.reps} ==")
        print(f"  {'backend':<8} {'kernel':<7} {'wall_s':>8} {'vs default':>11}  outputs")
        for backend, kernel in CONFIGS:
            env = child_env(REPRO_NC_BACKEND=backend, REPRO_NC_KERNEL=kernel)
            reps = [
                spawn(["--child", workload, str(args.seed), "0", "-"], env=env)
                for _ in range(args.reps)
            ]
            bad = sum(judge(workload, rep, recorded)[0] for rep in reps)
            failed += bad
            walls[(backend, kernel)] = median([r["wall_s"] for r in reps])
            ratio = walls[(backend, kernel)] / walls[CONFIGS[0]]
            print(f"  {backend:<8} {'on' if kernel == '1' else 'off':<7} "
                  f"{walls[(backend, kernel)]:>8.3f} {ratio:>10.2f}x  "
                  f"{'as recorded' if not bad else f'{bad} FAILED'}")
        fastest = min(walls, key=walls.get)
        verdict = "yes" if fastest == CONFIGS[0] else (
            f"no: backend={fastest[0]} kernel={'on' if fastest[1] == '1' else 'off'} "
            f"is {walls[CONFIGS[0]] / walls[fastest]:.2f}x faster"
        )
        print(f"  default (array, kernel on) fastest: {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
