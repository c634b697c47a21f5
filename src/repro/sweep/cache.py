"""Content-addressed cache for sweep point results.

A point's result depends on exactly three things: the base pipeline
model (its JSON document), the point's parameters + evaluation options,
and the code that computed it.  The cache key is a SHA-256 over the
canonical JSON of all three, the last represented by a version salt —
bump :data:`CACHE_SCHEMA_VERSION` whenever the result schema or the
underlying numerics change, and stale entries simply stop matching.

Entries are one JSON file each under ``<dir>/<key[:2]>/<key>.json``
(two-level fan-out keeps directories small).  Reads tolerate missing or
corrupt files (treated as a miss); writes go through
:func:`repro._fsutil.atomic_write_text` — a uniquely-named temp file in
the entry's own directory followed by ``os.replace`` — so concurrent
writers (parallel sweep workers, server threads, overlapping CI jobs)
can never collide on an intermediate name or leave a truncated entry.

The cache is shared infrastructure: :mod:`repro.sweep` populates it
from grid runs and :mod:`repro.serve` from network requests, with
identical keys — so an analysis computed either way is a hit for both.
:meth:`ResultCache.stats` and :meth:`ResultCache.prune` back the
``repro cache`` CLI verb.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Mapping

from .. import __version__
from .._fsutil import atomic_write_text

__all__ = ["CACHE_SCHEMA_VERSION", "canonical_json", "point_key", "ResultCache"]

#: bump to invalidate every existing cache entry
#: v2: results grew metrics + conformance sections; v3: the DES no longer
#: serves a job's sub-nanobyte excess as an extra job (``des`` payloads change)
CACHE_SCHEMA_VERSION = 3


def canonical_json(obj: Any) -> str:
    """Deterministic JSON rendering: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def point_key(
    model: Mapping[str, Any],
    params: Mapping[str, Any],
    options: Mapping[str, Any],
    *,
    salt: str | None = None,
) -> str:
    """The content address of one (model, point, options) evaluation."""
    payload = {
        "model": model,
        "params": params,
        "options": options,
        "salt": salt if salt is not None else f"repro-{__version__}-schema-{CACHE_SCHEMA_VERSION}",
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


class ResultCache:
    """Filesystem-backed content-addressed store of point results."""

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached result for ``key``, or ``None`` on a miss.

        Unreadable or corrupt entries count as misses — the cache is an
        accelerator, never a source of errors.
        """
        path = self._path(key)
        try:
            result = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(result, dict):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: Mapping[str, Any]) -> Path:
        """Store ``result`` under ``key`` atomically; returns the path."""
        return atomic_write_text(
            self._path(key), json.dumps(dict(result), indent=1) + "\n"
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*/*.json"))

    def _entries(self) -> "list[Path]":
        return sorted(self.directory.glob("*/*.json"))

    def stats(self) -> dict[str, Any]:
        """Size and age accounting for the on-disk store.

        Ages are measured from entry mtimes; session hit/miss counters
        ride along (zeros for a cache object that has not served this
        process yet).
        """
        now = time.time()
        entries = 0
        total_bytes = 0
        oldest: "float | None" = None
        newest: "float | None" = None
        for path in self._entries():
            try:
                st = path.stat()
            except OSError:
                continue  # pruned/replaced concurrently
            entries += 1
            total_bytes += st.st_size
            age = max(0.0, now - st.st_mtime)
            oldest = age if oldest is None else max(oldest, age)
            newest = age if newest is None else min(newest, age)
        return {
            "directory": str(self.directory),
            "entries": entries,
            "bytes": total_bytes,
            "oldest_age_s": oldest,
            "newest_age_s": newest,
            "hits": self.hits,
            "misses": self.misses,
        }

    def prune(self, *, max_age_s: "float | None" = None) -> int:
        """Remove entries older than ``max_age_s`` (all when ``None``).

        Also sweeps any orphaned ``*.tmp`` files left by crashed
        writers, and drops fan-out directories that become empty.
        Returns the number of cache entries removed.
        """
        if max_age_s is not None and max_age_s < 0:
            raise ValueError(f"max_age_s must be >= 0, got {max_age_s}")
        now = time.time()
        removed = 0
        for path in self._entries():
            try:
                if max_age_s is not None and now - path.stat().st_mtime <= max_age_s:
                    continue
                path.unlink()
                removed += 1
            except OSError:
                continue  # raced with another pruner/writer: already gone
        for orphan in self.directory.glob("*/.*.tmp"):
            try:
                orphan.unlink()
            except OSError:
                continue
        for sub in self.directory.iterdir():
            if sub.is_dir():
                try:
                    sub.rmdir()  # only succeeds when empty
                except OSError:
                    pass
        return removed

    def clear(self) -> int:
        """Remove every entry; returns the count removed."""
        return self.prune(max_age_s=None)
