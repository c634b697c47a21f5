"""Durable tenant state: an append-only journal of registry operations.

PR 6 left the tenant registry in router memory: a router bounce forgot
every envelope, so the cluster re-opened its front door wide until each
tenant re-registered — exactly the window in which the paper's
aggregate guarantee (``sum alpha_i <= beta``) cannot be enforced.  The
journal closes that window: every ``register_tenant`` / reconfigure
that mutates the registry is appended here first, and a restarting
router replays the journal before it accepts a single connection, so
the registry (same ``R_i``/``b_i``/SLO per tenant) survives the bounce.

Format: one JSON record per line (NDJSON), ordered by ``seq``::

    {"seq": 1, "op": "register",    "tenant": "acme", "rate": 50.0,
     "burst": 20.0, "slo_s": null}
    {"seq": 2, "op": "reconfigure", "tenant": "acme", "rate": 80.0,
     "burst": 30.0, "slo_s": 0.25}

Durability goes through :func:`repro._fsutil.atomic_write_text` with
``durable=True``: each append rewrites the (small — one record per
registry mutation, auto-compacted to last-wins when it grows past a
threshold) file via write-to-temp-then-rename, fsyncing the file before
the rename and the directory after it.  A reader — or a router
restarting after a process or host crash mid-append — sees either the
previous journal or the new one, never a torn line, and an append that
returned is on disk.  Replay is therefore total: there is no partial-
record recovery case to handle.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .._fsutil import atomic_write_text
from .tenants import TenantRegistry

__all__ = ["TenantJournal"]

#: auto-compact when the journal holds this many times more records
#: than distinct tenants (reconfigure churn; last-wins makes old
#: records dead weight)
_COMPACT_FACTOR = 8
_COMPACT_MIN_RECORDS = 64


class TenantJournal:
    """Append-only registry op log, replayable into a fresh registry."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._records: list[dict[str, Any]] = []
        self._seq = 0
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        text = self.path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(
                    f"tenant journal {self.path}: line {lineno} is not valid "
                    f"JSON ({exc}); the journal is written atomically, so "
                    "this file was edited or truncated by hand"
                ) from exc
            self._records.append(record)
        self._seq = max((r.get("seq", 0) for r in self._records), default=0)

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #

    def append(
        self,
        op: str,
        tenant: str,
        rate: float,
        burst: float,
        *,
        slo_s: "float | None" = None,
    ) -> dict[str, Any]:
        """Append one registry mutation and persist atomically."""
        if op not in ("register", "reconfigure"):
            raise ValueError(f"unknown journal op {op!r}")
        self._seq += 1
        record = {
            "seq": self._seq,
            "op": op,
            "tenant": str(tenant),
            "rate": float(rate),
            "burst": float(burst),
            "slo_s": None if slo_s is None else float(slo_s),
        }
        self._records.append(record)
        if (
            len(self._records) >= _COMPACT_MIN_RECORDS
            and len(self._records) >= _COMPACT_FACTOR * len(self.tenants())
        ):
            self.compact()
        else:
            self._flush()
        return record

    def compact(self) -> int:
        """Collapse to one last-wins record per tenant; returns records dropped.

        Sequence numbers are preserved (the survivors keep theirs), so
        compaction never reorders replay.
        """
        last: dict[str, dict[str, Any]] = {}
        for record in self._records:
            last[record["tenant"]] = record
        survivors = sorted(last.values(), key=lambda r: r["seq"])
        dropped = len(self._records) - len(survivors)
        self._records = survivors
        self._flush()
        return dropped

    def _flush(self) -> None:
        atomic_write_text(
            self.path,
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in self._records),
            durable=True,
        )

    # ------------------------------------------------------------------ #
    # reading / replay
    # ------------------------------------------------------------------ #

    def replay_into(self, registry: TenantRegistry) -> int:
        """Apply every record in seq order; returns the record count."""
        for record in sorted(self._records, key=lambda r: r["seq"]):
            registry.register(
                record["tenant"],
                record["rate"],
                record["burst"],
                slo_s=record["slo_s"],
            )
        return len(self._records)

    def tenants(self) -> dict[str, dict[str, Any]]:
        """Last-wins view: tenant name -> its current journaled envelope."""
        out: dict[str, dict[str, Any]] = {}
        for record in sorted(self._records, key=lambda r: r["seq"]):
            out[record["tenant"]] = record
        return out

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> "tuple[dict[str, Any], ...]":
        return tuple(self._records)

    def snapshot(self) -> dict[str, Any]:
        """The ``/stats`` journal block."""
        return {
            "path": str(self.path),
            "records": len(self._records),
            "tenants": len(self.tenants()),
            "seq": self._seq,
        }
