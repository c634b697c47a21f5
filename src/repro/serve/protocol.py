"""Wire protocol of the analysis service: newline-delimited JSON.

One request per line, one response per line, UTF-8, over any byte
stream (TCP here).  The frame is deliberately trivial — ``readline`` is
the framing — so clients exist in any language in a dozen lines, and a
session is inspectable with ``nc``/``socat``.

Request document::

    {"v": 1, "id": "r1", "op": "analyze",
     "model": {... pipeline model JSON ...},
     "params": {"scale:network": 2.0},
     "options": {"packetized": false, "workload_mib": 64, "seed": 42}}

``op`` is one of :data:`OPS`; ``model``/``params``/``options`` are
required only for the evaluation ops.  ``params`` uses the sweep axis
vocabulary (:mod:`repro.sweep.spec`), so a served evaluation is
bit-identical to — and shares cache entries with — the same point of a
``repro sweep`` run.

Response document::

    {"v": 1, "id": "r1", "ok": true, "status": 200, "result": {...}}
    {"v": 1, "id": "r1", "ok": false, "status": 429,
     "error": {"code": "rejected_rate", "message": "...", "retry_after_s": 0.5}}

``status`` follows HTTP semantics (400 malformed, 408 timeout, 413
oversize, 422 evaluation failed, 429 admission-rejected, 500 internal,
503 draining) without dragging in an HTTP stack.  A refused frame's
answer carries the frame's ``id`` when the frame is a JSON object whose
``id`` is a string or an integer, whatever else is wrong with it, and
``null`` otherwise.

Validation is strict and reuses :mod:`repro._validation`: unknown keys,
wrong types, and non-finite numbers are rejected with a 400 before any
work is scheduled — a malformed request must never reach the worker
pool.

Multi-tenancy (the cluster tier): every request may carry a ``tenant``
identity string.  A single server treats it as routing metadata (it
shows up in per-tenant counters); the cluster router additionally runs
per-tenant leaky-bucket admission against it.  The tenant-registry ops
``register_tenant`` (options ``rate``/``burst``/``slo_ms``) and
``tenants`` are answered only by the router — a plain shard returns 501
``cluster_only`` for them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Mapping

from .._validation import check_finite, check_non_negative
from ..units import MiB

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "OPS",
    "EVAL_OPS",
    "CLUSTER_OPS",
    "ProtocolError",
    "Request",
    "parse_request",
    "evaluation_options",
    "tenant_options",
    "encode",
    "ok_response",
    "error_response",
    "parse_response",
]

#: protocol schema version; bump on incompatible wire changes
PROTOCOL_VERSION = 1

#: hard cap on one request/response line (models are a few KiB; this
#: leaves ample headroom while bounding a hostile client's memory cost)
MAX_LINE_BYTES = 4 * 1024 * 1024

#: ops that evaluate a pipeline model on the worker pool
EVAL_OPS = ("analyze", "simulate", "sweep_point")

#: ops answered only by the cluster router (tenant registry)
CLUSTER_OPS = ("register_tenant", "tenants")

#: every operation the server understands
OPS = ("ping", "capacity", "stats", "shutdown") + CLUSTER_OPS + EVAL_OPS

_REQUEST_KEYS = {"v", "id", "op", "model", "params", "options", "tenant"}
_OPTION_KEYS = {"packetized", "workload_mib", "seed", "simulate"}
_TENANT_OPTION_KEYS = {"rate", "burst", "slo_ms"}
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class ProtocolError(ValueError):
    """A request the server refuses before doing any work; ``req_id`` is
    the frame's own ``id`` when it is readable, for the answer to echo."""

    def __init__(self, message: str, *, status: int = 400, code: str = "bad_request") -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.req_id: "str | int | None" = None


@dataclass(frozen=True)
class Request:
    """A validated request, ready for dispatch."""

    op: str
    id: "str | int | None" = None
    model: "dict[str, Any] | None" = None
    params: dict[str, Any] = field(default_factory=dict)
    options: dict[str, Any] = field(default_factory=dict)
    tenant: "str | None" = None


def _check_params(params: Any) -> dict[str, Any]:
    if not isinstance(params, dict):
        raise ProtocolError(f"'params' must be an object, got {type(params).__name__}")
    out: dict[str, Any] = {}
    for key, value in params.items():
        if not isinstance(key, str):
            raise ProtocolError("'params' keys must be strings")
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ProtocolError(
                f"param {key!r} must be a number or string, got {type(value).__name__}"
            )
        if isinstance(value, (int, float)):
            try:
                check_finite(f"param {key!r}", value)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from exc
        out[key] = value
    return out


def evaluation_options(raw: Mapping[str, Any], *, op: str) -> dict[str, Any]:
    """Normalize request options to the sweep evaluation-options shape.

    The returned dict — ``{"simulate", "packetized", "workload",
    "base_seed"}`` — is exactly what :func:`repro.sweep.runner.
    evaluate_point` consumes and what :func:`repro.sweep.cache.
    point_key` hashes, so served results are cache-compatible with
    sweep results.
    """
    unknown = set(raw) - _OPTION_KEYS
    if unknown:
        raise ProtocolError(f"unknown option(s) {sorted(unknown)}")
    if "simulate" in raw and op != "sweep_point":
        raise ProtocolError("option 'simulate' is only valid for op 'sweep_point'")
    simulate = {"analyze": False, "simulate": True}.get(op, raw.get("simulate", False))
    if not isinstance(simulate, bool):
        raise ProtocolError("option 'simulate' must be a boolean")
    packetized = raw.get("packetized", False)
    if not isinstance(packetized, bool):
        raise ProtocolError("option 'packetized' must be a boolean")
    workload = None
    if raw.get("workload_mib") is not None:
        wl = raw["workload_mib"]
        if isinstance(wl, bool) or not isinstance(wl, (int, float)):
            raise ProtocolError("option 'workload_mib' must be a number")
        try:
            check_non_negative("workload_mib", wl)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        workload = float(wl) * MiB if wl > 0 else None
    seed = raw.get("seed", 42)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ProtocolError("option 'seed' must be an integer")
    return {
        "simulate": simulate,
        "packetized": packetized,
        "workload": workload,
        "base_seed": seed,
    }


def _check_tenant(value: Any) -> "str | None":
    if value is None:
        return None
    if not isinstance(value, str):
        raise ProtocolError(f"'tenant' must be a string, got {type(value).__name__}")
    if not _TENANT_RE.match(value):
        raise ProtocolError(
            f"'tenant' {value!r} is invalid (1-64 chars of [A-Za-z0-9._-], "
            "starting alphanumeric)"
        )
    return value


def tenant_options(raw: Mapping[str, Any]) -> dict[str, Any]:
    """Validate ``register_tenant`` options into ``{rate, burst, slo_s}``.

    The tenant's declared leaky bucket: sustained ``rate`` requests/s
    and ``burst`` requests (both required, positive, finite), plus an
    optional per-tenant delay SLO in milliseconds.
    """
    unknown = set(raw) - _TENANT_OPTION_KEYS
    if unknown:
        raise ProtocolError(f"unknown option(s) {sorted(unknown)}")
    out: dict[str, Any] = {}
    for key in ("rate", "burst"):
        if key not in raw:
            raise ProtocolError(f"op 'register_tenant' requires option {key!r}")
        value = raw[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError(f"option {key!r} must be a number")
        try:
            check_finite(key, value)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        if value <= 0:
            raise ProtocolError(f"option {key!r} must be > 0, got {value}")
        out[key] = float(value)
    out["slo_s"] = None
    if raw.get("slo_ms") is not None:
        slo = raw["slo_ms"]
        if isinstance(slo, bool) or not isinstance(slo, (int, float)):
            raise ProtocolError("option 'slo_ms' must be a number")
        try:
            check_finite("slo_ms", slo)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        if slo <= 0:
            raise ProtocolError(f"option 'slo_ms' must be > 0, got {slo}")
        out["slo_s"] = float(slo) / 1e3
    return out


def parse_request(line: "str | bytes") -> Request:
    """Parse and strictly validate one request line.

    Raises :class:`ProtocolError` (with an HTTP-style status) on any
    violation; never raises anything else for untrusted input.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"request exceeds {MAX_LINE_BYTES} bytes", status=413, code="too_large"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, the int-digit limit, or nesting deeper than
        # the decoder's recursion limit
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError(f"request must be a JSON object, got {type(doc).__name__}")
    req_id = doc.get("id")
    if req_id is not None and (
        isinstance(req_id, bool) or not isinstance(req_id, (str, int))
    ):
        raise ProtocolError("'id' must be a string or integer")
    try:
        return _request(doc, req_id)
    except ProtocolError as exc:
        exc.req_id = req_id
        raise


def _request(doc: dict[str, Any], req_id: "str | int | None") -> Request:
    """Validate the fields of a request object whose ``id`` is readable."""
    unknown = set(doc) - _REQUEST_KEYS
    if unknown:
        raise ProtocolError(f"unknown request key(s) {sorted(unknown)}")
    version = doc.get("v", PROTOCOL_VERSION)
    if isinstance(version, bool) or version != PROTOCOL_VERSION:  # True == 1
        raise ProtocolError(
            f"unsupported protocol version {version!r} (this server speaks "
            f"v{PROTOCOL_VERSION})",
            code="bad_version",
        )
    op = doc.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {', '.join(OPS)})",
                            code="unknown_op")
    model = doc.get("model")
    params = _check_params(doc.get("params", {}))
    raw_options = doc.get("options", {})
    if not isinstance(raw_options, dict):
        raise ProtocolError("'options' must be an object")
    tenant = _check_tenant(doc.get("tenant"))
    if op in EVAL_OPS:
        if not isinstance(model, dict):
            raise ProtocolError(f"op {op!r} requires a 'model' object")
        options = evaluation_options(raw_options, op=op)
    elif op == "register_tenant":
        if model is not None or params:
            raise ProtocolError("op 'register_tenant' takes no model/params")
        if tenant is None:
            raise ProtocolError("op 'register_tenant' requires a 'tenant' identity")
        options = tenant_options(raw_options)
    else:
        if model is not None or params or raw_options:
            raise ProtocolError(f"op {op!r} takes no model/params/options")
        options = {}
    return Request(
        op=op, id=req_id, model=model, params=params, options=options, tenant=tenant
    )


def encode(doc: Mapping[str, Any]) -> bytes:
    """One wire frame: compact JSON plus the terminating newline."""
    return json.dumps(dict(doc), separators=(",", ":"), allow_nan=True).encode() + b"\n"


def ok_response(req_id: "str | int | None", result: Mapping[str, Any], *,
                status: int = 200) -> dict[str, Any]:
    """A success response document."""
    return {"v": PROTOCOL_VERSION, "id": req_id, "ok": True, "status": status,
            "result": dict(result)}


def error_response(req_id: "str | int | None", *, status: int, code: str,
                   message: str, **extra: Any) -> dict[str, Any]:
    """A failure response document (HTTP-style status + machine code)."""
    return {"v": PROTOCOL_VERSION, "id": req_id, "ok": False, "status": status,
            "error": {"code": code, "message": message, **extra}}


def parse_response(line: "str | bytes") -> dict[str, Any]:
    """Decode a response line (client side); raises ``ValueError`` if torn."""
    doc = json.loads(line)
    if not isinstance(doc, dict) or "ok" not in doc:
        raise ValueError(f"malformed response frame: {line!r}")
    return doc
