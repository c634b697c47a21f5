"""k-mer extraction and the query hash table (seed-matching support).

BLASTN's seed-match stage checks "each byte-aligned 8-mer of the
database ... against a hash table constructed from all 8-mers of the
query sequence".  This module provides the vectorised k-mer encoding
(a rolling 2-bit window packed into integers) and the query table that
maps each k-mer value to every query position where it occurs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .twobit import encode_bases

__all__ = ["kmer_values", "KmerTable", "DEFAULT_K"]

#: BLASTN's seed length.
DEFAULT_K = 8


def kmer_values(codes: np.ndarray, k: int = DEFAULT_K, stride: int = 1) -> np.ndarray:
    """Pack every ``stride``-aligned ``k``-mer into an integer.

    ``codes`` is a 2-bit code array; the result has one entry per k-mer
    start position (``len(codes) - k + 1`` positions for stride 1),
    packed big-endian so lexicographic k-mer order matches numeric
    order.  ``stride=4`` gives the paper's byte-aligned database walk
    (four bases per packed byte).
    """
    if k < 1 or k > 31:
        raise ValueError("k must be in 1..31")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    codes = np.asarray(codes, dtype=np.int64)
    n = len(codes) - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    vals = np.zeros(n, dtype=np.int64)
    for j in range(k):
        vals = (vals << 2) | codes[j : j + n]
    return vals[::stride]


@dataclass
class KmerTable:
    """Hash table of all k-mers of a query sequence.

    ``lookup`` answers the seed-match question (does this k-mer occur?);
    ``positions`` answers the seed-enumeration question (at which query
    offsets?).
    """

    k: int
    _table: dict[int, np.ndarray]

    @classmethod
    def from_query(cls, query: str, k: int = DEFAULT_K) -> "KmerTable":
        """Index every (stride-1) k-mer of ``query``."""
        codes = encode_bases(query)
        if len(codes) < k:
            raise ValueError(f"query shorter than k={k}")
        vals = kmer_values(codes, k)
        order = np.argsort(vals, kind="stable")
        sorted_vals = vals[order]
        boundaries = np.flatnonzero(np.diff(sorted_vals)) + 1
        groups = np.split(order, boundaries)
        uniq = sorted_vals[np.concatenate(([0], boundaries))] if len(vals) else []
        table = {int(v): g.astype(np.int64) for v, g in zip(uniq, groups)}
        return cls(k=k, _table=table)

    def lookup(self, value: int) -> bool:
        """True when the k-mer occurs anywhere in the query."""
        return int(value) in self._table

    def positions(self, value: int) -> np.ndarray:
        """All query positions of the k-mer (empty array when absent)."""
        return self._table.get(int(value), np.empty(0, dtype=np.int64))

    def contains_mask(self, values: np.ndarray) -> np.ndarray:
        """Vectorised membership test over an array of k-mer values."""
        values = np.asarray(values, dtype=np.int64)
        if not self._table:
            return np.zeros(len(values), dtype=bool)
        keys = np.fromiter(self._table.keys(), dtype=np.int64, count=len(self._table))
        keys.sort()
        idx = np.searchsorted(keys, values)
        idx = np.clip(idx, 0, len(keys) - 1)
        return keys[idx] == values

    def __len__(self) -> int:
        return len(self._table)
