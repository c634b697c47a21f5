"""Heterogeneous streaming-pipeline performance models.

The paper's primary contribution: network calculus applied to streaming
pipelines whose nodes are compute kernels *and* data-movement links,
with job-ratio aggregation latencies, input-referred volume
normalization (including compression-ratio uncertainty), packetization,
buffer sizing, and arrival shaping.

Typical flow::

    from repro.streaming import Pipeline, Source, Stage, analyze, simulate

    pipe = Pipeline("demo", Source(rate=..., packet_bytes=...), [Stage(...), ...])
    report = analyze(pipe)          # network-calculus bounds
    sim = simulate(pipe, workload=...)  # discrete-event validation
"""

from .stage import Stage, StageKind, VolumeRatio
from .normalization import (
    NormalizedStage,
    cumulative_volume_factors,
    normalize_stages,
)
from .jobratio import (
    LatencyTerm,
    aggregation_latency,
    total_latency,
    total_latency_breakdown,
)
from .pipeline import Pipeline, Source
from .model import SystemModel, build_model
from .analysis import AnalysisReport, NodeReport, analyze
from .simulation import simulate, to_simulation
from .sizing import BufferPlan, size_buffers
from .backpressure import admissible_source_rate, max_rate_for_buffers, shaped_source
from .io import load_pipeline, pipeline_from_dict, pipeline_to_dict, save_pipeline
from .whatif import (
    WhatIfReport,
    bottleneck_ladder,
    compare,
    downgrade_stage,
    scaled_stage,
    upgrade_grid,
    upgrade_stage,
)

__all__ = [
    "Stage",
    "StageKind",
    "VolumeRatio",
    "NormalizedStage",
    "cumulative_volume_factors",
    "normalize_stages",
    "LatencyTerm",
    "aggregation_latency",
    "total_latency",
    "total_latency_breakdown",
    "Pipeline",
    "Source",
    "SystemModel",
    "build_model",
    "AnalysisReport",
    "NodeReport",
    "analyze",
    "simulate",
    "to_simulation",
    "BufferPlan",
    "size_buffers",
    "admissible_source_rate",
    "max_rate_for_buffers",
    "shaped_source",
    "load_pipeline",
    "pipeline_from_dict",
    "pipeline_to_dict",
    "save_pipeline",
    "WhatIfReport",
    "bottleneck_ladder",
    "compare",
    "downgrade_stage",
    "scaled_stage",
    "upgrade_grid",
    "upgrade_stage",
]
