"""Each process imports only what its path runs.

Every check starts a fresh interpreter, as a user's process starts.  The
batch entry modules with an NC-only sweep point, and the serving
processes, load neither NumPy nor the DES, the figures or ``tomllib``.
A simulated point loads them when it runs, and answers as it does in a
process that had them from the start.  A serial sweep or catalog loads
none of the worker machinery, which only ``jobs > 1`` needs.  A spawned
engine worker, as ``repro serve`` starts them where spawn is the
platform's default start method, loads nothing of the serving stack,
and the module that holds a cluster shard's body loads nothing of the
cluster tier, so ``repro serve`` does not load it either.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.apps.blast import blast_pipeline
from repro.streaming import pipeline_to_dict
from repro.sweep import evaluate_point

HEAVY = ("numpy", "repro.des", "repro.viz", "tomllib")
PARAMS = {"scale:network": 2.0}
NC_ONLY = {"simulate": False, "packetized": True, "workload": None, "base_seed": 42}
SIMULATED = {"simulate": True, "packetized": False, "workload": 2 * 1024 * 1024, "base_seed": 42}
SEED = 7

BATCH_CHILD = f"""
import json, sys
import repro.scenarios, repro.sweep, repro.apps.blast
from repro.streaming import pipeline_to_dict

model = pipeline_to_dict(repro.apps.blast.blast_pipeline())
before = set(sys.modules)
nc = repro.sweep.evaluate_point(model, {PARAMS!r}, {NC_ONLY!r}, {SEED})
new = sorted(set(sys.modules) - before)
heavy = [m for m in {HEAVY!r} if m in sys.modules]
sim = repro.sweep.evaluate_point(model, {PARAMS!r}, {SIMULATED!r}, {SEED})
print(json.dumps({{"new": new, "heavy": heavy, "nc": nc, "sim": sim}}))
"""

#: what only a parallel batch (``jobs > 1``) needs
WORKER_MACHINERY = (
    "multiprocessing", "socket", "selectors", "concurrent.futures", "repro._worker",
)

#: a serial sweep (NC and simulated points) and a serial catalog, both
#: into a result cache
SERIAL_BATCH_CHILD = f"""
import json, sys, tempfile
import repro.scenarios, repro.sweep
from repro.apps.blast import blast_pipeline

with tempfile.TemporaryDirectory() as tmp:
    cache = repro.sweep.ResultCache(tmp)
    for simulate in (False, True):
        spec = repro.sweep.SweepSpec.from_pipeline(
            blast_pipeline(), [repro.sweep.Axis("scale:network", (1.0, 2.0))],
            simulate=simulate, workload=2 * 1024 * 1024,
        )
        assert repro.sweep.run_sweep(spec, jobs=1, cache=cache).mode == "serial"
    specs = repro.scenarios.quick_catalog(per_family=1)
    assert repro.scenarios.run_catalog(specs, jobs=1, cache=cache).mode == "serial"
    cache.close()
print(json.dumps([m for m in {WORKER_MACHINERY!r} if m in sys.modules]))
"""

#: an engine with one spawned worker, run from a ``-c`` main; after one
#: NC-only call the worker reports what it has imported
SPAWNED_WORKER = f"""
import asyncio, json, multiprocessing
from repro.apps.blast import blast_pipeline
from repro.serve.engine import AnalysisEngine, ServeConfig
from repro.streaming import pipeline_to_dict
from repro.sweep import evaluate_point

async def main():
    engine = AnalysisEngine(ServeConfig(workers=1, calibrate=0))
    await engine.start()
    try:
        model = pipeline_to_dict(blast_pipeline())
        nc = await engine._call(evaluate_point, (model, {PARAMS!r}, {NC_ONLY!r}, {SEED}))
        # eval pickles by name, so the worker runs it
        modules = await engine._call(eval, ("sorted(__import__('sys').modules)",))
    finally:
        await engine.aclose()
    return nc, modules

multiprocessing.set_start_method("spawn")
nc, modules = asyncio.run(main())
print(json.dumps({{"nc": nc, "modules": modules}}))
"""
#: what a worker runs none of
SERVING_STACK = ("asyncio", "concurrent.futures.process", "repro.serve", "numpy")


def _python(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _answer(out: dict) -> dict:
    """A point's answer without its timing, as JSON gives it back."""
    return json.loads(json.dumps({k: v for k, v in out.items() if k != "elapsed"}))


@pytest.fixture(scope="module")
def batch_child() -> dict:
    return json.loads(_python(BATCH_CHILD))


def test_nc_point_imports_nothing_and_no_heavy_module(batch_child):
    assert "error" not in batch_child["nc"], batch_child["nc"]
    # no set-up work moves into the timed run
    assert batch_child["new"] == []
    assert batch_child["heavy"] == []


def test_nc_point_answers_as_in_process(batch_child):
    model = pipeline_to_dict(blast_pipeline())
    assert _answer(batch_child["nc"]) == _answer(evaluate_point(model, PARAMS, NC_ONLY, SEED))


def test_simulated_point_answers_as_in_process(batch_child):
    model = pipeline_to_dict(blast_pipeline())
    want = _answer(evaluate_point(model, PARAMS, SIMULATED, SEED))
    assert want["des"] is not None and want["conformance"] is not None
    assert _answer(batch_child["sim"]) == want


def test_serving_entry_modules_load_no_heavy_module():
    code = (
        "import sys\n"
        "import repro.cli, repro.cluster, repro.serve\n"
        f"print([m for m in {HEAVY!r} if m in sys.modules])\n"
    )
    assert _python(code) == "[]\n"


def test_spawned_worker_loads_nothing_of_the_serving_stack():
    child = json.loads(_python(SPAWNED_WORKER))
    assert "error" not in child["nc"], child["nc"]
    assert "repro.sweep.runner" in child["modules"]
    assert [m for m in SERVING_STACK if m in child["modules"]] == []


def test_serial_batch_loads_no_worker_machinery():
    assert json.loads(_python(SERIAL_BATCH_CHILD)) == []


def test_shard_body_module_loads_nothing_of_the_cluster_tier():
    from repro.cluster import shards

    # the shard body sits next to the server that ``repro serve`` runs
    module = shards._shard_main.__module__
    code = (
        f"import json, sys, {module}\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('repro.cluster')]))\n"
    )
    assert json.loads(_python(code)) == []
