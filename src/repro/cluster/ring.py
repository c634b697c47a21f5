"""Consistent-hash ring for digest-affinity routing.

The router hashes each evaluation request by the same content digest
the sweep cache derives (:func:`repro.sweep.cache.point_key`), so the
*same analysis always lands on the same shard* — which keeps that
shard's result cache hot.  Its hit rate only materializes under
affinity: spraying identical requests across shards leaves every
shard's cache cold.

Classic Karger-style ring: each shard owns ``vnodes`` points on a
64-bit circle (blake2b of ``"{node}#{i}"``), a key routes to the first
point clockwise of its own hash, and removing a shard only reassigns
the keys that shard owned — 1/N of the space — instead of reshuffling
everything (which is why failover keeps the *other* shards' caches
warm).

:meth:`HashRing.preference` returns the full failover order (distinct
shards in ring order), so when the owner dies the router walks to the
successor — the exact shard that would own the key if the dead one
were removed.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Sequence

__all__ = ["HashRing"]


def _point(label: str) -> int:
    """A position on the 2^64 circle (blake2b is stdlib and fast)."""
    return int.from_bytes(
        hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """Immutable consistent-hash ring over named shards."""

    def __init__(self, nodes: Iterable[str], *, vnodes: int = 64) -> None:
        self.nodes = tuple(dict.fromkeys(nodes))  # de-dup, keep order
        if not self.nodes:
            raise ValueError("HashRing needs at least one node")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        points: list[tuple[int, str]] = []
        for node in self.nodes:
            for i in range(self.vnodes):
                points.append((_point(f"{node}#{i}"), node))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [n for _, n in points]

    def _start_index(self, key: str) -> int:
        h = _point(key)
        idx = bisect.bisect_right(self._points, h)
        return idx % len(self._points)

    def route(self, key: str) -> str:
        """The shard that owns ``key`` (first vnode clockwise of its hash)."""
        return self._owners[self._start_index(key)]

    def preference(self, key: str) -> Sequence[str]:
        """All shards in failover order for ``key`` (owner first).

        Walking the ring clockwise and keeping first occurrences yields
        the owner, then the shard that would own the key were the owner
        removed, and so on — the successor list used for re-routing
        when a shard dies mid-request.
        """
        start = self._start_index(key)
        seen: dict[str, None] = {}
        n = len(self._owners)
        for offset in range(n):
            owner = self._owners[(start + offset) % n]
            if owner not in seen:
                seen[owner] = None
                if len(seen) == len(self.nodes):
                    break
        return tuple(seen)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"HashRing(nodes={list(self.nodes)!r}, vnodes={self.vnodes})"
