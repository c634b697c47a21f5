"""repro — network calculus performance models for heterogeneous streaming applications.

Reproduction of C. J. Faber and R. D. Chamberlain, "Application of
Network Calculus Models to Heterogeneous Streaming Applications"
(IPPS/APDCM 2024; IJNC 15(1):51-63, 2025).

Top-level convenience re-exports cover the most common entry points;
see the subpackages for the full API:

* :mod:`repro.nc`         — deterministic network calculus core
* :mod:`repro.streaming`  — heterogeneous streaming-pipeline models
* :mod:`repro.des`        — discrete-event simulation substrate
* :mod:`repro.queueing`   — M/M/1 / queueing-network baselines
* :mod:`repro.substrates` — BLASTN, LZ4/AES, and link substrates
* :mod:`repro.apps`       — the paper's two case studies
"""

from .nc import (
    Curve,
    UnboundedCurveError,
    backlog_bound,
    convolve,
    deconvolve,
    delay_bound,
    leaky_bucket,
    output_arrival_curve,
    rate_latency,
)

#: the one place the version is written: ``pyproject.toml`` reads it from
#: here, so no interpreter pays for ``importlib.metadata`` at import
__version__ = "1.0.0"

__all__ = [
    "Curve",
    "UnboundedCurveError",
    "backlog_bound",
    "convolve",
    "deconvolve",
    "delay_bound",
    "leaky_bucket",
    "output_arrival_curve",
    "rate_latency",
    "__version__",
]
