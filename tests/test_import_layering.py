"""Each process imports only what its path runs.

Every check starts a fresh interpreter, as a user's process starts.  The
batch entry modules with an NC-only sweep point, and the serving
processes, load neither NumPy nor the DES, the figures or ``tomllib``.
A simulated point loads them when it runs, and answers as it does in a
process that had them from the start.
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
