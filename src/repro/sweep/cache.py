"""Content-addressed cache for sweep point results.

A point's result depends on exactly three things: the base pipeline
model (its JSON document), the point's parameters + evaluation options,
and the code that computed it.  The cache key is a SHA-256 over the
canonical JSON of all three, the last represented by a version salt —
bump :data:`CACHE_SCHEMA_VERSION` whenever the result schema or the
underlying numerics change, and stale entries simply stop matching.

Entries are rows of one SQLite table, ``entries(key TEXT PRIMARY KEY,
value TEXT, mtime REAL)``, in ``<dir>/cache.sqlite3``; a value is the
result's compact JSON and ``mtime`` its last write.  Each :meth:`put`
is one autocommit, journalled in WAL mode with ``synchronous=NORMAL``:
a commit is atomic and the file stays consistent after a crash, but no
commit fsyncs, so a host crash may lose the last puts — an accelerator,
not durable state.  A busy timeout makes concurrent processes (parallel
sweeps, shards, overlapping CI jobs) wait for SQLite's own lock rather
than fail, and readers never see a half-written value.  One lock
serializes the threads of a process over the connection.  WAL needs
shared memory, so the directory must be on a local filesystem.

``sqlite3`` is imported, and the file opened, on first use: processes
that never touch a cache do not load it, and a pool worker never uses
its parent's connection.  :meth:`ResultCache.close` (or ``with``) ends
the connection; a later call reopens it.

The cache is shared infrastructure: :mod:`repro.sweep` populates it
from grid runs and :mod:`repro.serve` from network requests, with
identical keys — so an analysis computed either way is a hit for both.
:meth:`ResultCache.stats` and :meth:`ResultCache.prune` back the
``repro cache`` CLI verb.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping

from .. import __version__

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "STORE_FILE",
    "canonical_json",
    "point_key",
    "point_keyer",
    "ResultCache",
]

#: bump to invalidate every existing cache entry
#: v2: results grew metrics + conformance sections; v3: the DES no longer
#: serves a job's sub-nanobyte excess as an extra job (``des`` payloads change)
CACHE_SCHEMA_VERSION = 3

#: the store's one file inside a cache directory
STORE_FILE = "cache.sqlite3"

#: seconds a statement waits for another process's write lock
BUSY_TIMEOUT_S = 30.0


def canonical_json(obj: Any) -> str:
    """Deterministic JSON rendering: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def point_keyer(
    model: Mapping[str, Any],
    options: Mapping[str, Any],
    *,
    salt: str | None = None,
) -> Callable[[Mapping[str, Any]], str]:
    """The key function of one (model, options) pair: ``params -> key``.

    A key is the SHA-256 of ``canonical_json({"model", "options",
    "params", "salt"})``.  Sorted keys put ``params`` between the model
    and options and the salt, so both ends are rendered and the head
    hashed once; each point then hashes only its own params.
    """
    if salt is None:
        salt = f"repro-{__version__}-schema-{CACHE_SCHEMA_VERSION}"
    head = hashlib.sha256(
        f'{{"model":{canonical_json(model)},'
        f'"options":{canonical_json(options)},"params":'.encode()
    )
    tail = f',"salt":{canonical_json(salt)}}}'.encode()

    def key(params: Mapping[str, Any]) -> str:
        h = head.copy()
        h.update(canonical_json(params).encode())
        h.update(tail)
        return h.hexdigest()

    return key


def point_key(
    model: Mapping[str, Any],
    params: Mapping[str, Any],
    options: Mapping[str, Any],
    *,
    salt: str | None = None,
) -> str:
    """The content address of one (model, point, options) evaluation."""
    return point_keyer(model, options, salt=salt)(params)


def _open_store(path: Path) -> Any:
    """A connection to the store at ``path``, created on first open."""
    import sqlite3

    db = sqlite3.connect(
        path,
        timeout=BUSY_TIMEOUT_S,
        isolation_level=None,  # autocommit: one put, one commit
        check_same_thread=False,  # the cache's lock serializes threads
    )
    try:
        # WAL is a property of the file, set by its first opener.  Two
        # processes switching a new file at once would deadlock on the
        # lock upgrade, so SQLite fails one at once instead of waiting:
        # retry until the timeout.  Once set, the switch is a no-op.
        deadline = time.monotonic() + BUSY_TIMEOUT_S
        while True:
            try:
                mode = db.execute("PRAGMA journal_mode=WAL").fetchone()[0]
            except sqlite3.OperationalError:  # "database is locked"
                mode = None
            if mode == "wal":
                break
            if time.monotonic() > deadline:
                raise sqlite3.OperationalError(f"{path}: cannot switch to WAL")
            time.sleep(0.01)
        db.execute("PRAGMA synchronous=NORMAL")
        db.execute(
            "CREATE TABLE IF NOT EXISTS entries "
            "(key TEXT PRIMARY KEY, value TEXT, mtime REAL)"
        )
    except BaseException:
        db.close()
        raise
    return db


class ResultCache:
    """Content-addressed store of point results: one SQLite table."""

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._db: Any = None

    def _conn(self) -> Any:
        """The open connection (opened here on first use); hold the lock."""
        if self._db is None:
            self._db = _open_store(self.directory / STORE_FILE)
        return self._db

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached result for ``key``, or ``None`` on a miss.

        A corrupt or non-dict value counts as a miss — the cache is an
        accelerator, never a source of wrong results.
        """
        with self._lock:
            row = self._conn().execute(
                "SELECT value FROM entries WHERE key = ?", (key,)
            ).fetchone()
            try:
                result = json.loads(row[0]) if row is not None else None
            except (TypeError, ValueError):
                result = None
            if isinstance(result, dict):
                return result
            return None

    def put(self, key: str, result: Mapping[str, Any]) -> None:
        """Store ``result`` under ``key`` (one atomic commit); a re-put
        replaces the value and refreshes its ``mtime``."""
        value = json.dumps(dict(result), separators=(",", ":"))
        with self._lock:
            self._conn().execute(
                "INSERT OR REPLACE INTO entries VALUES (?, ?, ?)",
                (key, value, time.time()),
            )

    def __len__(self) -> int:
        with self._lock:
            return self._conn().execute("SELECT count(*) FROM entries").fetchone()[0]

    def stats(self) -> dict[str, Any]:
        """Size and age accounting for the store, in one query.

        ``bytes`` counts the stored JSON values; ages are measured from
        entry mtimes.
        """
        now = time.time()
        with self._lock:
            entries, total_bytes, oldest, newest = self._conn().execute(
                "SELECT count(*), total(length(value)), min(mtime), max(mtime) "
                "FROM entries"
            ).fetchone()
        return {
            "directory": str(self.directory),
            "entries": entries,
            "bytes": int(total_bytes),
            "oldest_age_s": None if oldest is None else max(0.0, now - oldest),
            "newest_age_s": None if newest is None else max(0.0, now - newest),
        }

    def prune(self, *, max_age_s: "float | None" = None) -> int:
        """Remove entries older than ``max_age_s`` (all when ``None``).

        Returns the number of cache entries removed.
        """
        if max_age_s is not None and max_age_s < 0:
            raise ValueError(f"max_age_s must be >= 0, got {max_age_s}")
        with self._lock:
            if max_age_s is None:
                cur = self._conn().execute("DELETE FROM entries")
            else:
                cur = self._conn().execute(
                    "DELETE FROM entries WHERE mtime < ?", (time.time() - max_age_s,)
                )
            return cur.rowcount

    def clear(self) -> int:
        """Remove every entry; returns the count removed."""
        return self.prune(max_age_s=None)

    def close(self) -> None:
        """Close the connection (checkpointing the WAL into the file)."""
        with self._lock:
            if self._db is not None:
                self._db.close()
                self._db = None

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
