"""Regenerate ``recorded.json``, the reference outputs the checks compare to.

For every input variant it records the digest of the ``sweep_nc`` NC
results and the per-scenario outcome (conformance verdict, failing
checks, error) of the ``catalog`` workload.  Run it only at a commit
whose outputs are the accepted reference::

    python3 perfbench/record.py            # all variants, ~6 min
    python3 perfbench/record.py --check 3  # compare 3 variants to the file
"""

from __future__ import annotations

import argparse
import json
import sys

from batch import catalog_specs, scenario_outcome, sweep_digest, sweep_specs
from common import RECORDED, VARIANTS, use_program

_PASS = [True, [], None]


def record_variant(variant: int, builtin: dict) -> tuple[dict, dict]:
    from repro.scenarios import run_catalog
    from repro.sweep import run_sweep

    specs = sweep_specs(variant)
    results = [run_sweep(spec, jobs=1) for spec in specs]
    sweep = {
        "digest": sweep_digest(results),
        "points": sum(len(r.results) for r in results),
    }
    extras = catalog_specs(variant)[len(builtin["outcomes"]):]
    run = run_catalog(extras, jobs=1)
    known = {}
    for r in run.results:
        outcome = scenario_outcome(r)
        if outcome != _PASS:
            known[r.spec.name] = outcome
    return sweep, {"checks": builtin["checks"] + run.n_checks, "known": known}


def record_builtin() -> dict:
    from repro.scenarios import catalog, run_catalog

    run = run_catalog(catalog(), jobs=1)
    return {
        "outcomes": {r.spec.name: scenario_outcome(r) for r in run.results},
        "checks": run.n_checks,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", type=int, default=None, metavar="N",
                        help="recompute the first N variants and compare")
    args = parser.parse_args()
    use_program()
    builtin = record_builtin()
    if args.check is not None:
        recorded = json.loads(RECORDED.read_text())
        ok = builtin["outcomes"] == recorded["catalog"]["builtin"]
        for v in range(args.check):
            sweep, cat = record_variant(v, builtin)
            ok &= sweep == recorded["sweep_nc"][str(v)]
            ok &= cat == recorded["catalog"]["variants"][str(v)]
        print("recorded outputs", "match" if ok else "DIFFER")
        return 0 if ok else 1
    doc: dict = {
        "variants": VARIANTS,
        "sweep_nc": {},
        "catalog": {"builtin": builtin["outcomes"], "variants": {}},
    }
    for v in range(VARIANTS):
        sweep, cat = record_variant(v, builtin)
        doc["sweep_nc"][str(v)] = sweep
        doc["catalog"]["variants"][str(v)] = cat
        print(f"variant {v}: {len(cat['known'])} known defect(s)", file=sys.stderr, flush=True)
    RECORDED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
