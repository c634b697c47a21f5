"""Scenario spec + strict TOML loading tests.

The malformed-file contract: every unknown key and out-of-range value
raises a single ``ValueError`` naming the file and the dotted TOML path
of the offending key — never a KeyError/TypeError traceback.
"""

from __future__ import annotations

import math

import pytest

from repro.scenarios import Expectations, ScenarioSpec, load_scenario
from repro.scenarios import _toml
from repro.units import MiB

VALID = """
name = "toml-roundtrip"
family = "custom"
description = "loader test"  # trailing comment
workload_mib = 2.0
seed = 7
data_scenario = "worst"
packetized = true

[source]
rate = 100e6
burst = 1e6
packet_bytes = 65536

[[stages]]
name = "crunch"
avg_rate = 2.5e8
min_rate = 2e8
max_rate = 3e8
latency = 1e-3
job_bytes = 262144
volume_ratio = { best = 0.5, avg = 0.5, worst = 0.5 }

[[stages]]
name = "emit"
avg_rate = 4e8

[expect]
stable = true
conformance = true
throughput_lower_bound = 100e6
rtol = 1e-6
"""


def _load(tmp_path, text: str):
    path = tmp_path / "scenario.toml"
    path.write_text(text)
    return path


class TestLoadScenario:
    def test_valid_file_roundtrips(self, tmp_path):
        spec = load_scenario(_load(tmp_path, VALID))
        assert spec.name == "toml-roundtrip"
        assert spec.family == "custom"
        assert spec.workload == 2.0 * MiB
        assert spec.seed == 7
        assert spec.data_scenario == "worst"
        assert spec.packetized is True
        assert spec.n_stages == 2
        assert spec.expect.stable is True
        assert spec.expect.rtol == 1e-6
        pipe = spec.build_pipeline()
        assert pipe.source.rate == 100e6
        assert pipe.stages[0].volume_ratio.avg == 0.5
        # omitted volume_ratio keys default to the identity
        assert pipe.stages[1].volume_ratio.avg == 1.0

    @pytest.mark.parametrize(
        "mutation, key",
        [
            ("workload_mib = 2.0", "wrokload_mib = 2.0"),  # top-level typo
            ("burst = 1e6", "bust = 1e6"),                 # source typo
            ("latency = 1e-3", "latencyy = 1e-3"),         # stage typo
            ("stable = true", "stble = true"),             # expect typo
            ("best = 0.5,", "bst = 0.5,"),                 # ratio typo
        ],
    )
    def test_unknown_key_names_file_and_path(self, tmp_path, mutation, key):
        path = _load(tmp_path, VALID.replace(mutation, key))
        with pytest.raises(ValueError) as err:
            load_scenario(path)
        message = str(err.value)
        assert str(path) in message
        assert key.split(" ")[0] in message
        assert "unknown key" in message

    def test_unknown_stage_key_is_indexed(self, tmp_path):
        path = _load(tmp_path, VALID.replace("latency = 1e-3", "latenc = 1e-3"))
        assert "stages[0].latenc" in str(pytest.raises(
            ValueError, load_scenario, path).value)

    @pytest.mark.parametrize(
        "mutation, needle",
        [
            ("rate = 100e6", "rate = -5.0"),          # negative source rate
            ("avg_rate = 4e8", "avg_rate = 0.0"),     # zero stage rate
            ("workload_mib = 2.0", "workload_mib = -1.0"),
            ("rtol = 1e-6", "rtol = 0.0"),
        ],
    )
    def test_out_of_range_value_is_one_valueerror(self, tmp_path, mutation, needle):
        path = _load(tmp_path, VALID.replace(mutation, needle))
        with pytest.raises(ValueError) as err:
            load_scenario(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "mutation, replacement, path_hint",
        [
            ("seed = 7", "seed = true", "seed"),
            ("rate = 100e6", 'rate = "fast"', "source.rate"),
            ("stable = true", "stable = 1.0", "expect.stable"),
            ('name = "toml-roundtrip"', "name = 3", "name"),
        ],
    )
    def test_type_errors_name_the_key(self, tmp_path, mutation, replacement, path_hint):
        path = _load(tmp_path, VALID.replace(mutation, replacement))
        assert path_hint in str(pytest.raises(ValueError, load_scenario, path).value)

    def test_missing_required_keys(self, tmp_path):
        path = _load(tmp_path, VALID.replace('name = "toml-roundtrip"', ""))
        assert "name" in str(pytest.raises(ValueError, load_scenario, path).value)
        path = _load(tmp_path, VALID.replace("[source]\nrate = 100e6", "[source]"))
        assert "source.rate" in str(
            pytest.raises(ValueError, load_scenario, path).value)

    def test_syntactically_broken_toml(self, tmp_path):
        path = _load(tmp_path, "name = \n[what")
        message = str(pytest.raises(ValueError, load_scenario, path).value)
        assert str(path) in message and "not valid TOML" in message

    def test_nonfinite_expectation_rejected(self, tmp_path):
        path = _load(
            tmp_path,
            VALID.replace("throughput_lower_bound = 100e6",
                          "throughput_lower_bound = inf"),
        )
        message = str(pytest.raises(ValueError, load_scenario, path).value)
        assert "finite" in message


class TestFallbackParser:
    """The 3.10 subset parser must agree with tomllib where both run."""

    def test_parity_with_tomllib(self, monkeypatch):
        subset = _toml._parse_subset(VALID)
        tomllib = _toml._stdlib_toml()
        if tomllib is not None:
            assert subset == tomllib.loads(VALID)

    def test_loader_uses_fallback_when_tomllib_missing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_toml, "_stdlib_toml", lambda: None)
        spec = load_scenario(_load(tmp_path, VALID))
        assert spec.name == "toml-roundtrip"
        assert spec.expect.throughput_lower_bound == 100e6

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("just words", "key = value"),
            ("[table\nx = 1", "unterminated table"),
            ("x = ", "missing value"),
            ("x = nope", "cannot parse"),
            ("x = 1\nx = 2", "duplicate key"),
            ('x = "open', "unterminated string"),
            ("x = [1, 2", "unterminated array"),
        ],
    )
    def test_fallback_errors_carry_line_numbers(self, text, needle, monkeypatch):
        monkeypatch.setattr(_toml, "_stdlib_toml", lambda: None)
        with pytest.raises(_toml.TomlError) as err:
            _toml.loads(text)
        assert needle in str(err.value)
        assert "line" in str(err.value)

    def test_fallback_values(self, monkeypatch):
        monkeypatch.setattr(_toml, "_stdlib_toml", lambda: None)
        data = _toml.loads(
            'a = 1_000\nb = -2.5e-3\nc = true\nd = "s # not comment"  # comment\n'
            "e = [1, 2.0, [3]]\nf = { x = 1, y = { z = 2 } }\n"
            "[t.nested]\nk = 1\n[[arr]]\nv = 1\n[[arr]]\nv = 2\n"
        )
        assert data["a"] == 1000 and data["b"] == -2.5e-3 and data["c"] is True
        assert data["d"] == "s # not comment"
        assert data["e"] == [1, 2.0, [3]]
        assert data["f"] == {"x": 1, "y": {"z": 2}}
        assert data["t"]["nested"]["k"] == 1
        assert [e["v"] for e in data["arr"]] == [1, 2]


class TestDataclasses:
    def _pipeline(self):
        return {
            "name": "p",
            "source": {"rate": 1e8},
            "stages": [{"name": "s", "avg_rate": 2e8}],
        }

    def test_expectations_reject_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Expectations(delay_bound=math.nan)
        with pytest.raises(ValueError, match="rtol"):
            Expectations(rtol=-1e-6)

    def test_closed_forms_excludes_booleans_and_rtol(self):
        e = Expectations(stable=True, conformance=False, delay_bound=0.5, rtol=1e-3)
        assert e.closed_forms() == {"delay_bound": 0.5}

    def test_bad_family_and_scenario(self):
        with pytest.raises(ValueError, match="family"):
            ScenarioSpec(name="x", family="nope", pipeline=self._pipeline())
        with pytest.raises(ValueError, match="data_scenario"):
            ScenarioSpec(name="x", family="custom", pipeline=self._pipeline(),
                         data_scenario="median")

    def test_conformance_requires_workload(self):
        with pytest.raises(ValueError, match="workload"):
            ScenarioSpec(name="x", family="custom", pipeline=self._pipeline(),
                         expect=Expectations(conformance=True))

    def test_pipeline_validated_at_definition_time(self):
        bad = self._pipeline()
        bad["stages"] = []
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", family="custom", pipeline=bad)
