"""Disk-backed cache of verdicts and their certificates.

The cache lives in a universe store's file (``<root>/universe.sqlite``,
:mod:`repro.universe.storefile`) as the ``decisions`` table: one row per
canonical ``(n, m, low, high)`` holding a verdict entry::

    {"solvability": ..., "reason": ..., "tier": ..., "procedure": ...,
     "certificate_id": ..., "certificate": <payload or null>,
     "evidence": [...], "budget": {...}}

A lookup is one indexed row; writes are transactions, and a write made
inside an enclosing store transaction (the close-open commit) joins it,
so override rows and their decide-cache rows land together or not at
all.
"""

from __future__ import annotations

import json
import weakref
from pathlib import Path
from typing import Iterator

from ..core import cache_config

Key = tuple[int, int, int, int]

#: Live instances, so the process-wide cache report can aggregate them.
_instances: "weakref.WeakSet[CertificateCache]" = weakref.WeakSet()


def _aggregate_stats() -> dict[str, int]:
    totals = {"instances": 0, "hits": 0, "misses": 0, "writes": 0}
    for cache in list(_instances):
        totals["instances"] += 1
        totals["hits"] += cache._hits
        totals["misses"] += cache._misses
        totals["writes"] += cache._writes
    return totals


def _aggregate_clear() -> None:
    # Counters only: dropping rows would destroy durable verdicts.
    for cache in list(_instances):
        cache._hits = cache._misses = cache._writes = 0


cache_config.register_counters(
    "decision.certificates", _aggregate_stats, _aggregate_clear
)


class CertificateCache:
    """Verdict + certificate rows in the store file of ``root``."""

    def __init__(self, root: str | Path):
        from ..universe.storefile import StoreFile

        self.root = Path(root)
        self._db = StoreFile.at(self.root)
        self._hits = 0
        self._misses = 0
        self._writes = 0
        _instances.add(self)

    def get(self, key: Key) -> dict | None:
        """The stored entry for a canonical key, or None."""
        rows = self._db.rows(
            "SELECT payload FROM decisions "
            "WHERE n = ? AND m = ? AND low = ? AND high = ?",
            tuple(key),
        )
        if not rows:
            self._misses += 1
            return None
        self._hits += 1
        return self._db.loads(rows[0][0])

    def put(self, key: Key, entry: dict) -> None:
        """Store one entry."""
        self.put_many({key: entry})

    def put_many(self, entries: dict[Key, dict]) -> None:
        """Store a batch of entries in one transaction."""
        if not entries:
            return
        with self._db.transaction() as connection:
            connection.executemany(
                "INSERT OR REPLACE INTO decisions (n, m, low, high, payload) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    (*key, json.dumps(entry, sort_keys=True))
                    for key, entry in sorted(entries.items())
                ),
            )
        self._writes += len(entries)

    # -- enumeration (replay passes, stats) -----------------------------

    def iter_entries(self) -> Iterator[tuple[Key, dict]]:
        """Every stored entry in ascending key order (replay passes)."""
        for n, m, low, high, blob in self._db.rows(
            "SELECT n, m, low, high, payload FROM decisions "
            "ORDER BY n, m, low, high"
        ):
            yield (n, m, low, high), self._db.loads(blob)

    def iter_certificates(self) -> Iterator[tuple[Key, dict]]:
        """Every stored certificate payload (deduped by id)."""
        seen: set[str] = set()
        for key, entry in self.iter_entries():
            payload = entry.get("certificate")
            identifier = entry.get("certificate_id")
            if payload is None or identifier in seen:
                continue
            seen.add(identifier)
            yield key, payload

    def stats(self) -> dict[str, int | str]:
        """Hit/miss/write counters plus the stored entry count."""
        return {
            "root": str(self.root),
            "hits": self._hits,
            "misses": self._misses,
            "writes": self._writes,
            "entries": self._db.value(
                "SELECT COUNT(*) FROM decisions", default=0
            ),
        }

    def clear(self) -> None:
        """Drop stored entries and counters (tests/benchmarks)."""
        self._hits = 0
        self._misses = 0
        self._writes = 0
        if self._db.path.is_file():
            with self._db.transaction() as connection:
                connection.execute("DELETE FROM decisions")
