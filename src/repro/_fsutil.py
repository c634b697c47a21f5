"""Atomic filesystem writes shared by every artifact producer.

Its callers: the sweep artifact store (``results.json``/``.csv``,
``manifest.json``), the scenario reports, the figure CSVs, exported
model documents, Perfetto trace files and the cluster's durable tenant
table (:class:`repro.cluster.tenants.TenantRegistry`, the only durable
caller).  The result cache is not among them: its
entries are rows of one SQLite file (:mod:`repro.sweep.cache`).

Concurrent writers (parallel sweeps, overlapping CI jobs) must never
leave a torn file where a reader — or another writer — expects a
complete JSON/CSV document.  The standard POSIX answer is
write-to-temp-then-rename: ``os.replace`` is atomic on the same
filesystem, so observers see either the old content or the new, never
a prefix.

The temp file is created with :func:`tempfile.mkstemp` *in the target
directory* — unique per call, so two threads of one process (same PID)
or two processes racing on the same path cannot collide on the
intermediate name, and the final rename never crosses a filesystem
boundary.

Atomic is not durable: without fsync, a host crash can lose a rename
the program already acknowledged, or leave the new name pointing at an
empty file.  ``durable=True`` fsyncs the temp file before the rename
and the directory after it.  Only state that promises to survive a host
crash asks for it (the tenant table); reports do not pay two fsyncs
per write.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write_text"]


def atomic_write_text(
    path: "str | Path", text: str, *, encoding: str = "utf-8", durable: bool = False
) -> Path:
    """Write ``text`` to ``path`` atomically; returns the path.

    Creates parent directories as needed.  On any failure the temp file
    is removed and the destination is left untouched.  With ``durable``
    the write also survives a host crash once this returns.
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(out.parent), prefix=f".{out.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding=encoding) as fh:
            fh.write(text)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, out)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if durable:
        # the rename lives in the directory entry: sync it too
        dir_fd = os.open(out.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    return out
