"""Declarative scenario library + exploration harness.

Fuzzes the three pillars of the reproduction against each other: the
network-calculus **model** (:mod:`repro.streaming.analysis`), the
**DES** baseline (:mod:`repro.des`), and hand-derived **closed forms**
(textbook queueing + the paper's affine bound formulas).

* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec` /
  :class:`Expectations` plus the strict TOML loader;
* :mod:`repro.scenarios.families` — the built-in catalog: ``classic``
  (known closed forms), ``randomized`` (seed-deterministic stable
  pipelines), ``adversarial`` (saturation, bursts, deep aggregation,
  heavy tails);
* :mod:`repro.scenarios.runner` — sweep-engine-backed execution
  (content-addressed caching, worker pool) and the expectation judge;
* :mod:`repro.scenarios.report` — markdown/JSON report artifacts.

CLI: ``repro scenarios {list,run,report}``.
"""

from .families import (
    adversarial_scenarios,
    catalog,
    classic_scenarios,
    multiflow_scenarios,
    quick_catalog,
    randomized_scenarios,
)
from .report import (
    catalog_to_json,
    load_catalog_json,
    render_catalog_markdown,
    render_scenario_markdown,
    write_reports,
)
from .runner import (
    CatalogResult,
    Check,
    ScenarioResult,
    evaluate_scenario,
    judge_scenario,
    run_catalog,
)
from .spec import (
    DATA_SCENARIOS,
    FAMILIES,
    Expectations,
    ScenarioSpec,
    load_scenario,
    scenario_from_dict,
)

__all__ = [
    "FAMILIES",
    "DATA_SCENARIOS",
    "Expectations",
    "ScenarioSpec",
    "scenario_from_dict",
    "load_scenario",
    "classic_scenarios",
    "randomized_scenarios",
    "adversarial_scenarios",
    "multiflow_scenarios",
    "catalog",
    "quick_catalog",
    "Check",
    "ScenarioResult",
    "CatalogResult",
    "evaluate_scenario",
    "judge_scenario",
    "run_catalog",
    "catalog_to_json",
    "load_catalog_json",
    "render_catalog_markdown",
    "render_scenario_markdown",
    "write_reports",
]
