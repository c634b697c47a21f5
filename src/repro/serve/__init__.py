"""Long-lived analysis service with NC-self-applied admission control.

The ROADMAP's production-scale north star needs a serving layer: this
subsystem exposes the reproduction's analyses (NC bounds, DES
validation, sweep points) as a concurrent network service — and models
*itself* with the paper's own machinery.  The admission token bucket is
the arrival curve ``alpha(t) = R t + b``; the calibrated worker pool is
the rate-latency service curve ``beta(t) = R_beta (t - T)``; the
``/capacity`` endpoint reports the resulting delay bound
``T + b / R_beta`` and admission rejects (never queues) whatever would
break it.

* :mod:`repro.serve.protocol`  — newline-delimited-JSON wire schema;
* :mod:`repro.serve.admission` — token bucket + NC self-model;
* :mod:`repro.serve.service`   — the NDJSON shell: listener, framing,
  in-flight accounting, drain (shared with the cluster router);
* :mod:`repro.serve.engine`    — admission, cache, process pool;
* :mod:`repro.serve.server`    — single-node dispatch over the engine;
* :mod:`repro.serve.client`    — blocking client (``repro request``).

Served evaluations share content-addressed cache entries with
:mod:`repro.sweep` — a point analyzed by a sweep is a cache hit when
requested over the wire, and vice versa.
"""

from .admission import AdmissionController, SelfModel, TokenBucket
from .client import ServeClient, ServeClosedError, ServeConnectError
from .engine import AnalysisEngine
from .protocol import (
    CLUSTER_OPS,
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    encode,
    error_response,
    ok_response,
    parse_request,
    parse_response,
    tenant_options,
)
from .server import AnalysisServer, ServeConfig, ServerThread, run

__all__ = [
    "AdmissionController",
    "SelfModel",
    "TokenBucket",
    "ServeClient",
    "ServeClosedError",
    "ServeConnectError",
    "AnalysisEngine",
    "CLUSTER_OPS",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "encode",
    "error_response",
    "ok_response",
    "parse_request",
    "parse_response",
    "tenant_options",
    "AnalysisServer",
    "ServeConfig",
    "ServerThread",
    "run",
]
