"""Pipeline model (de)serialization: JSON in, JSON out.

Measured stage parameters live outside code in any real methodology —
a measurement campaign produces numbers, the model consumes them.  This
module round-trips :class:`~repro.streaming.pipeline.Pipeline` through
a plain-JSON document so models can be versioned, diffed and fed to the
CLI (``repro analyze --file model.json``).

Schema (all rates in bytes/s, sizes in bytes, times in seconds)::

    {
      "name": "...",
      "source": {"rate": ..., "burst": ..., "packet_bytes": ...},
      "stages": [
        {"name": "...", "avg_rate": ..., "min_rate": ..., "max_rate": ...,
         "latency": ..., "job_bytes": ..., "emit_bytes": ...,
         "kind": "compute|network|pcie|memory",
         "volume_ratio": {"best": ..., "avg": ..., "worst": ...},
         "exec_time_min": ..., "exec_time_max": ...},
        ...
      ]
    }

Optional stage fields may be omitted; unknown fields are rejected so
typos fail loudly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from .pipeline import Pipeline, Source
from .stage import Stage, StageKind, VolumeRatio

__all__ = [
    "check_document_shape",
    "pipeline_to_dict",
    "pipeline_from_dict",
    "save_pipeline",
    "load_pipeline",
]

_STAGE_OPTIONAL = {
    "min_rate",
    "max_rate",
    "latency",
    "job_bytes",
    "emit_bytes",
    "kind",
    "volume_ratio",
    "exec_time_min",
    "exec_time_max",
}
_STAGE_REQUIRED = {"name", "avg_rate"}


def pipeline_to_dict(pipeline: Pipeline) -> dict[str, Any]:
    """Serialize a pipeline to a JSON-compatible dictionary."""
    stages = []
    for s in pipeline.stages:
        entry: dict[str, Any] = {
            "name": s.name,
            "avg_rate": s.avg_rate,
            "min_rate": s.rate_min,
            "max_rate": s.rate_max,
            "latency": s.latency,
            "job_bytes": s.job_bytes,
            "kind": s.kind.value,
            "volume_ratio": {
                "best": s.volume_ratio.best,
                "avg": s.volume_ratio.avg,
                "worst": s.volume_ratio.worst,
            },
        }
        if s.emit_bytes is not None:
            entry["emit_bytes"] = s.emit_bytes
        if s.exec_time_min is not None:
            entry["exec_time_min"] = s.exec_time_min
            entry["exec_time_max"] = s.exec_time_max
        stages.append(entry)
    return {
        "name": pipeline.name,
        "source": {
            "rate": pipeline.source.rate,
            "burst": pipeline.source.burst,
            "packet_bytes": pipeline.source.packet_bytes,
        },
        "stages": stages,
    }


def _check_fields(value: Any, what: str, required: "set[str]") -> None:
    """Raise ``ValueError`` naming ``what`` unless ``value`` is an object
    holding every ``required`` key."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    missing = required - set(value)
    if missing:
        raise ValueError(f"{what} missing {sorted(missing)}")


def check_document_shape(data: Mapping[str, Any]) -> None:
    """Raise the parser's ``ValueError`` unless ``data`` has the shape of a
    pipeline document: its top-level keys, a source object with a rate, a
    ``stages`` list, and each stage an object with its required keys.

    Values are not parsed; a document that passes may still fail
    :func:`pipeline_from_dict`.
    """
    for key in ("name", "source", "stages"):
        if key not in data:
            raise ValueError(f"pipeline document missing key {key!r}")
    _check_fields(data["source"], "source", {"rate"})
    stage_entries = data["stages"]
    if not isinstance(stage_entries, list):
        raise ValueError(f"stages must be a list, got {type(stage_entries).__name__}")
    for entry in stage_entries:
        _check_fields(entry, "stage entry", _STAGE_REQUIRED)


def pipeline_from_dict(data: dict[str, Any]) -> Pipeline:
    """Rebuild a pipeline from :func:`pipeline_to_dict` output.

    Validates the schema strictly: missing required keys, a source,
    stage list or stage of the wrong type, or unknown stage keys raise
    ``ValueError`` with the offending field named.
    """
    check_document_shape(data)
    src = data["source"]
    source = Source(
        rate=float(src["rate"]),
        burst=float(src.get("burst", 0.0)),
        packet_bytes=float(src.get("packet_bytes", 1.0)),
    )
    stages = []
    for entry in data["stages"]:
        unknown = set(entry) - _STAGE_REQUIRED - _STAGE_OPTIONAL
        if unknown:
            raise ValueError(f"stage {entry.get('name')!r}: unknown fields {sorted(unknown)}")
        vr = entry.get("volume_ratio")
        if vr:
            _check_fields(vr, f"stage {entry['name']!r} volume_ratio", {"best", "avg", "worst"})
        kwargs: dict[str, Any] = dict(
            name=entry["name"],
            avg_rate=float(entry["avg_rate"]),
            min_rate=float(entry["min_rate"]) if "min_rate" in entry else None,
            max_rate=float(entry["max_rate"]) if "max_rate" in entry else None,
            latency=float(entry.get("latency", 0.0)),
            job_bytes=float(entry.get("job_bytes", 1.0)),
            emit_bytes=float(entry["emit_bytes"]) if "emit_bytes" in entry else None,
            kind=StageKind(entry.get("kind", "compute")),
            volume_ratio=(
                VolumeRatio(float(vr["best"]), float(vr["avg"]), float(vr["worst"]))
                if vr
                else VolumeRatio.identity()
            ),
        )
        if "exec_time_min" in entry or "exec_time_max" in entry:
            kwargs["exec_time_min"] = float(entry["exec_time_min"])
            kwargs["exec_time_max"] = float(entry["exec_time_max"])
        stages.append(Stage(**kwargs))
    return Pipeline(data["name"], source, stages)


def save_pipeline(pipeline: Pipeline, path: "str | Path") -> Path:
    """Write the pipeline model to ``path`` as pretty-printed JSON.

    The write is atomic (temp file + rename), so a model file is never
    observed half-written by a concurrent reader.
    """
    from .._fsutil import atomic_write_text

    return atomic_write_text(path, json.dumps(pipeline_to_dict(pipeline), indent=2) + "\n")


def load_pipeline(path: "str | Path") -> Pipeline:
    """Read a pipeline model written by :func:`save_pipeline`.

    Malformed JSON raises ``ValueError`` (with the decode position),
    like every other schema violation — callers need one except clause.
    """
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(
            f"pipeline document must be a JSON object, got {type(data).__name__}"
        )
    return pipeline_from_dict(data)
