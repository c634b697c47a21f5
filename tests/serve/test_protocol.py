"""Wire-protocol validation: strict parsing, status codes, option mapping."""

import json
import math

import pytest

from repro.serve.protocol import (
    EVAL_OPS,
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    encode,
    error_response,
    evaluation_options,
    ok_response,
    parse_request,
    parse_response,
)
from repro.units import MiB

MODEL = {"name": "m", "source": {"rate": 1.0}, "stages": []}


def _line(**doc):
    return json.dumps(doc)


class TestParseRequest:
    def test_full_analyze_round_trip(self):
        req = parse_request(
            _line(
                v=1,
                id="r1",
                op="analyze",
                model=MODEL,
                params={"scale:network": 2.0},
                options={"packetized": True, "seed": 7},
            )
        )
        assert req.op == "analyze"
        assert req.id == "r1"
        assert req.model == MODEL
        assert req.params == {"scale:network": 2.0}
        assert req.options == {
            "simulate": False,
            "packetized": True,
            "workload": None,
            "base_seed": 7,
        }

    def test_defaults(self):
        req = parse_request(_line(op="analyze", model=MODEL))
        assert req.id is None
        assert req.params == {}
        assert req.options["simulate"] is False
        assert req.options["base_seed"] == 42

    def test_bytes_input_accepted(self):
        req = parse_request(_line(op="ping").encode())
        assert req.op == "ping"

    @pytest.mark.parametrize(
        "line",
        [
            "", "not json", "[1, 2]", '"str"', "123",
            # decoder failures that are not JSONDecodeError
            pytest.param("[" * 100_000, id="deep-nesting"),
            pytest.param('{"op": "ping", "id": ' + "7" * 5000 + "}", id="int-digit-limit"),
        ],
    )
    def test_non_object_rejected(self, line):
        with pytest.raises(ProtocolError) as exc:
            parse_request(line)
        assert exc.value.status == 400

    def test_unknown_request_key(self):
        with pytest.raises(ProtocolError, match="unknown request key"):
            parse_request(_line(op="ping", extra=1))

    @pytest.mark.parametrize("version", [99, True], ids=["99", "true"])
    def test_version_mismatch(self, version):
        with pytest.raises(ProtocolError) as exc:
            parse_request(_line(v=version, op="ping"))
        assert exc.value.code == "bad_version"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as exc:
            parse_request(_line(op="frobnicate"))
        assert exc.value.code == "unknown_op"

    @pytest.mark.parametrize("bad", [[1], True], ids=["list", "true"])
    def test_bad_id_type(self, bad):
        with pytest.raises(ProtocolError, match="'id'"):
            parse_request(_line(op="ping", id=bad))

    @pytest.mark.parametrize("op", EVAL_OPS)
    def test_eval_ops_require_model(self, op):
        with pytest.raises(ProtocolError, match="requires a 'model'"):
            parse_request(_line(op=op))

    @pytest.mark.parametrize("op", sorted(set(OPS) - set(EVAL_OPS)))
    def test_non_eval_ops_reject_payload(self, op):
        with pytest.raises(ProtocolError, match="takes no model"):
            parse_request(_line(op=op, params={"x": 1.0}))

    def test_oversize_line_is_413(self):
        fat = b" " * (MAX_LINE_BYTES + 1)
        with pytest.raises(ProtocolError) as exc:
            parse_request(fat)
        assert exc.value.status == 413
        assert exc.value.code == "too_large"

    def test_non_utf8_rejected(self):
        with pytest.raises(ProtocolError, match="not UTF-8"):
            parse_request(b"\xff\xfe{}")


class TestParams:
    def test_string_and_numeric_values_pass(self):
        req = parse_request(
            _line(op="analyze", model=MODEL, params={"scenario": "wan", "x": 3})
        )
        assert req.params == {"scenario": "wan", "x": 3}

    @pytest.mark.parametrize("bad", [True, [1.0], {"y": 1}, None])
    def test_bad_value_types_rejected(self, bad):
        with pytest.raises(ProtocolError, match="must be a number or string"):
            parse_request(_line(op="analyze", model=MODEL, params={"x": bad}))

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="int-overflow")]
    )
    def test_non_finite_rejected(self, bad):
        line = json.dumps(
            {"op": "analyze", "model": MODEL, "params": {"x": bad}}
        )  # json emits NaN/Infinity literals; the parser must refuse them
        with pytest.raises(ProtocolError):
            parse_request(line)

    def test_params_must_be_object(self):
        with pytest.raises(ProtocolError, match="'params' must be an object"):
            parse_request(_line(op="analyze", model=MODEL, params=[1]))


class TestEvaluationOptions:
    def test_unknown_option_rejected(self):
        with pytest.raises(ProtocolError, match="unknown option"):
            evaluation_options({"nope": 1}, op="analyze")

    def test_simulate_flag_restricted_to_sweep_point(self):
        with pytest.raises(ProtocolError, match="only valid for op 'sweep_point'"):
            evaluation_options({"simulate": True}, op="analyze")
        assert evaluation_options({"simulate": True}, op="sweep_point")["simulate"]

    def test_op_determines_simulate(self):
        assert evaluation_options({}, op="analyze")["simulate"] is False
        assert evaluation_options({}, op="simulate")["simulate"] is True
        assert evaluation_options({}, op="sweep_point")["simulate"] is False

    def test_workload_mib_converts_to_bytes(self):
        out = evaluation_options({"workload_mib": 64}, op="simulate")
        assert out["workload"] == 64 * MiB

    def test_workload_zero_means_none(self):
        assert evaluation_options({"workload_mib": 0}, op="simulate")["workload"] is None

    def test_workload_negative_rejected(self):
        with pytest.raises(ProtocolError):
            evaluation_options({"workload_mib": -1}, op="simulate")

    @pytest.mark.parametrize("bad", ["x", True, 1.5])
    def test_seed_must_be_integer(self, bad):
        with pytest.raises(ProtocolError, match="'seed' must be an integer"):
            evaluation_options({"seed": bad}, op="analyze")

    def test_shape_matches_sweep_options(self):
        # this exact key set is what sweep's point_key hashes — the
        # cache-compatibility contract
        out = evaluation_options({}, op="analyze")
        assert set(out) == {"simulate", "packetized", "workload", "base_seed"}


class TestResponses:
    def test_encode_is_one_line(self):
        frame = encode(ok_response("a", {"x": 1}))
        assert frame.endswith(b"\n")
        assert frame.count(b"\n") == 1

    def test_ok_round_trip(self):
        doc = parse_response(encode(ok_response(3, {"x": 1})))
        assert doc == {"v": PROTOCOL_VERSION, "id": 3, "ok": True, "status": 200,
                       "result": {"x": 1}}

    def test_error_shape(self):
        doc = error_response("r", status=429, code="rejected_rate",
                             message="m", retry_after_s=0.25)
        assert doc["ok"] is False
        assert doc["status"] == 429
        assert doc["error"]["retry_after_s"] == 0.25

    def test_malformed_response_raises(self):
        with pytest.raises(ValueError):
            parse_response(b'{"no": "ok field"}')
