"""Disk-backed incremental store for the universe graph.

A store directory holds one SQLite file, ``<root>/universe.sqlite``
(:mod:`repro.universe.storefile`), plus the sweep queue under
``<root>/sweep/`` once a campaign runs.  The file carries:

* the cells — per-``(n, m)`` nodes and intra-family containment covers.
  Cross-family edges depend on which cells exist and are derived at
  :meth:`UniverseStore.load` time, so incremental rebuilds are trivially
  correct: after widening the rectangle, ``build`` computes exactly the
  missing cells and everything already stored is reused;
* the overrides — verdicts the close-open sweep (tiers 3-4 of
  :mod:`repro.decision`) established for nodes the structural cells
  leave OPEN.  :meth:`UniverseStore.load` re-applies them, so a rebuilt
  graph keeps its closed frontier without re-searching;
* the decide cache (:class:`repro.decision.cache.CertificateCache`),
  shared with the ``decide`` CLI.

Parallel builds ride the census LPT sharding
(:func:`repro.analysis.census.partition_cells`): missing cells are
balanced over a process pool by the same ``n**2 * m`` cost estimate.  A
cell is a function of ``(n, m)`` alone (closed forms plus its own
family's kernel masks), so a worker needs no state from other cells.
Workers return plain JSON payloads; the parent commits each cell in its
own transaction, so an interrupted build keeps every cell it finished and
the next ``build`` computes only the rest.

Point lookups (:meth:`UniverseStore.node_at`) are one indexed row behind
a process-wide hot-node LRU registered with :mod:`repro.core.cache_config`
(``universe.hot_cells``), so a warm lookup touches no file at all, and
:meth:`UniverseStore.open_readonly` memoizes store instances (and their
assembled graphs, via :meth:`UniverseStore.load_cached`) per resolved
root, revalidating against the stored content fingerprint.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

from ..analysis.census import partition_cells
from ..core.cache_config import BoundedDictCache
from .graph import (
    EDGE_CONTAINMENT,
    UniverseCell,
    UniverseEdge,
    UniverseGraph,
    UniverseNode,
    assemble,
    build_cell,
    rectangle_cells,
)
from .storefile import SCHEMA_VERSION, StoreFile, store_fingerprint


def node_to_payload(node: UniverseNode) -> dict:
    """JSON-serializable dump of one node (one ``nodes`` row)."""
    return {
        "key": list(node.key),
        "solvability": node.solvability,
        "reason": node.reason,
        "kernel_count": node.kernel_count,
        "synonyms": [list(pair) for pair in node.synonyms],
        "labels": list(node.labels),
        "mask": hex(node.mask),
        "hardest": node.hardest,
        "certificate_id": node.certificate_id,
    }


def node_from_payload(raw: dict) -> UniverseNode:
    """Inverse of :func:`node_to_payload`."""
    return UniverseNode(
        key=tuple(raw["key"]),
        solvability=raw["solvability"],
        reason=raw["reason"],
        kernel_count=raw["kernel_count"],
        synonyms=tuple(tuple(pair) for pair in raw["synonyms"]),
        labels=tuple(raw["labels"]),
        mask=int(raw["mask"], 16),
        hardest=raw["hardest"],
        certificate_id=raw.get("certificate_id", ""),
    )


def cell_to_payload(cell: UniverseCell) -> dict:
    """JSON-serializable dump of one cell (what ``build`` stores)."""
    return {
        "version": SCHEMA_VERSION,
        "n": cell.n,
        "m": cell.m,
        "nodes": [node_to_payload(node) for node in cell.nodes],
        "edges": [
            [list(edge.source[2:]), list(edge.target[2:])] for edge in cell.edges
        ],
        "certificates": cell.certificates,
    }


def cell_from_payload(payload: dict) -> UniverseCell:
    """Inverse of :func:`cell_to_payload`; raises on schema mismatch."""
    version = payload.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"cell payload has schema version {version}, expected "
            f"{SCHEMA_VERSION}; rebuild the store with force=True"
        )
    n, m = payload["n"], payload["m"]
    nodes = tuple(node_from_payload(raw) for raw in payload["nodes"])
    edges = tuple(
        UniverseEdge((n, m, *source), (n, m, *target), EDGE_CONTAINMENT)
        for source, target in payload["edges"]
    )
    return UniverseCell(
        n=n,
        m=m,
        nodes=nodes,
        edges=edges,
        certificates=payload.get("certificates", {}),
    )


def _build_cell_shard(cells: list[tuple[int, int]]) -> list[dict]:
    """Worker entry point: the stored payloads of one shard's cells."""
    return [cell_to_payload(build_cell(n, m)) for n, m in cells]


@dataclass(frozen=True)
class BuildReport:
    """Outcome of one incremental build."""

    max_n: int
    max_m: int
    cells_total: int
    cells_built: int
    cells_reused: int
    jobs: int
    seconds: float


#: Process-wide hot-node LRU for point lookups: ``(root, fingerprint,
#: n, m, low, high) -> UniverseNode`` (or the absent marker) with
#: overrides applied.  Keyed on the store fingerprint so a rebuild or
#: close-open sweep never serves stale nodes; bounded and counted by
#: :mod:`repro.core.cache_config` like every other process-wide memo.
HOT_CELLS = BoundedDictCache("universe.hot_cells")

#: Cache marker for "this feasible key has no node in the store":
#: distinguishes a cached negative from a cache miss.
_ABSENT = object()


def _node_key(key) -> str:
    return ",".join(str(part) for part in key)


class UniverseStore:
    """A store directory: cells, overrides and the decide cache."""

    #: ``open_readonly`` memo: resolved root -> store.
    _READONLY: dict[str, "UniverseStore"] = {}

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._db = StoreFile.at(self.root)
        self._decision_cache = None
        self._fingerprint: str | None = None
        self._overrides_doc: dict | None = None
        self._graph_cache: tuple[str, UniverseGraph] | None = None

    @property
    def decision_cache(self):
        """The co-located verdict/certificate cache (lazy singleton)."""
        if self._decision_cache is None:
            from ..decision.cache import CertificateCache

            self._decision_cache = CertificateCache(self.root)
        return self._decision_cache

    def built_cells(self) -> list[tuple[int, int]]:
        """Every stored ``(n, m)``, ascending."""
        rows = self._db.rows("SELECT n, m FROM cells ORDER BY n, m")
        return [(n, m) for n, m in rows]

    # -- build ----------------------------------------------------------

    def build(
        self, max_n: int, max_m: int, jobs: int = 0, force: bool = False
    ) -> BuildReport:
        """Incrementally materialize a rectangle.

        Only cells not yet stored are computed, each committed in its own
        transaction; a warm rebuild of an already-built rectangle touches
        no cell at all.  ``force`` deletes the store file first and
        recreates it (the cure for a corrupt or stale-schema file).
        """
        started = time.perf_counter()
        if force:
            self._db.delete()
        cells = rectangle_cells(max_n, max_m)
        stored = set(self.built_cells())
        missing = [cell for cell in cells if cell not in stored]
        if jobs and len(missing) > 1:
            shards = partition_cells(missing, jobs)
            with ProcessPoolExecutor(max_workers=len(shards)) as pool:
                for payloads in pool.map(_build_cell_shard, shards):
                    for payload in payloads:
                        self._write_cell(payload)
        else:
            for n, m in missing:
                self._write_cell(cell_to_payload(build_cell(n, m)))
        report = BuildReport(
            max_n=max_n,
            max_m=max_m,
            cells_total=len(cells),
            cells_built=len(missing),
            cells_reused=len(cells) - len(missing),
            jobs=jobs,
            seconds=time.perf_counter() - started,
        )
        with self._db.transaction() as connection:
            last_build = {
                "max_n": max_n,
                "max_m": max_m,
                "jobs": jobs,
                "cells_built": report.cells_built,
                "cells_reused": report.cells_reused,
                "seconds": report.seconds,
            }
            self._db.set_meta(connection, "last_build", json.dumps(last_build))
        return report

    def _write_cell(self, payload: dict) -> None:
        """Commit one cell (its row, nodes and certificates) atomically."""
        n, m = payload["n"], payload["m"]
        with self._db.transaction() as connection:
            connection.execute(
                "INSERT OR REPLACE INTO cells "
                "(n, m, node_count, edge_count, edges) VALUES (?, ?, ?, ?, ?)",
                (n, m, len(payload["nodes"]), len(payload["edges"]),
                 json.dumps(payload["edges"])),
            )
            connection.executemany(
                "INSERT OR REPLACE INTO nodes (n, m, low, high, idx, payload) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (
                    (n, m, raw["key"][2], raw["key"][3], idx, json.dumps(raw))
                    for idx, raw in enumerate(payload["nodes"])
                ),
            )
            connection.executemany(
                "INSERT OR REPLACE INTO certificates (n, m, cert_id, payload) "
                "VALUES (?, ?, ?, ?)",
                (
                    (n, m, cert_id, json.dumps(cert))
                    for cert_id, cert in payload["certificates"].items()
                ),
            )
            self._store_fingerprint(connection)
        self._invalidate_read_caches()

    def _store_fingerprint(self, connection) -> None:
        """Recompute the content fingerprint inside a write transaction."""
        self._db.set_meta(
            connection,
            "fingerprint",
            store_fingerprint(self.built_cells(), self.read_overrides()),
        )

    # -- read caches and fingerprinting ---------------------------------

    def fingerprint(self) -> str:
        """Content fingerprint of the store (schema, cells, overrides).

        Stored by every write that changes content, so reading it is one
        row; memoized per instance until this instance mutates the store
        or :meth:`open_readonly` revalidates it.
        """
        if self._fingerprint is None:
            self._fingerprint = self._stored_fingerprint()
        return self._fingerprint

    def _stored_fingerprint(self) -> str:
        return self._db.meta("fingerprint") or store_fingerprint([], {})

    def _invalidate_read_caches(self) -> None:
        """Drop fingerprint/graph/overrides memos after a mutation."""
        self._fingerprint = None
        self._overrides_doc = None
        self._graph_cache = None

    @classmethod
    def open_readonly(cls, root: str | Path) -> "UniverseStore":
        """A process-memoized store for query-path call sites.

        Repeated opens of the same root return the same instance, so hot
        state — the assembled graph from :meth:`load_cached`, the
        overrides document — survives across call sites.  Each open
        revalidates: a store file replaced on disk is reconnected, and a
        changed content fingerprint drops the stale read caches.
        """
        key = str(Path(root).resolve())
        store = cls._READONLY.get(key)
        if store is None:
            store = cls._READONLY[key] = cls(root)
        else:
            fresh = store._stored_fingerprint()
            if fresh != store._fingerprint:
                store._invalidate_read_caches()
                store._fingerprint = fresh
        return store

    def pack(self) -> None:
        """Checkpoint the write-ahead log into the store file."""
        self._db.checkpoint()

    # -- point lookups ---------------------------------------------------

    def node_at(
        self, n: int, m: int, low: int, high: int
    ) -> UniverseNode | None:
        """O(1) point lookup of the node the parameters canonicalize to.

        Returns None when the synonym class is outside the built
        rectangle; raises ``ValueError`` for infeasible parameters.
        Close-open overrides are applied.  Warm lookups come out of the
        process-wide hot-node LRU with no file read at all; a cold
        lookup is one indexed row.
        """
        from .query import canonical_task_key

        key = canonical_task_key(n, m, low, high)
        cache_key = (str(self.root), self.fingerprint()) + key
        cached = HOT_CELLS.get(cache_key)
        if cached is not None:
            return None if cached is _ABSENT else cached
        rows = self._db.rows(
            "SELECT payload FROM nodes "
            "WHERE n = ? AND m = ? AND low = ? AND high = ?",
            key,
        )
        node = (
            self._override_node(node_from_payload(self._db.loads(rows[0][0])))
            if rows
            else None
        )
        HOT_CELLS.put(cache_key, _ABSENT if node is None else node)
        return node

    def _override_node(self, node: UniverseNode) -> UniverseNode:
        """Apply the node's close-open override row, if any."""
        row = self._overrides().get("overrides", {}).get(_node_key(node.key))
        if row is not None:
            try:
                node = replace(
                    node,
                    solvability=row["solvability"],
                    reason=row["reason"],
                    certificate_id=row.get("certificate_id", ""),
                )
            except (KeyError, TypeError):
                pass  # malformed override row: keep the structural node
        return node

    def certificate_payload(self, certificate_id: str) -> dict | None:
        """Point lookup of a certificate payload by content-hash id."""
        if not certificate_id:
            return None
        rows = self._db.rows(
            "SELECT payload FROM certificates WHERE cert_id = ? LIMIT 1",
            (certificate_id,),
        )
        if rows:
            return self._db.loads(rows[0][0])
        for row in self._overrides().get("overrides", {}).values():
            if row.get("certificate_id") == certificate_id:
                return row.get("certificate")
        return None

    def _overrides(self) -> dict:
        """The overrides document, memoized per instance."""
        if self._overrides_doc is None:
            self._overrides_doc = self.read_overrides()
        return self._overrides_doc

    def load_cached(self) -> UniverseGraph:
        """The assembled graph, memoized against the store fingerprint."""
        fingerprint = self.fingerprint()
        if self._graph_cache is not None and self._graph_cache[0] == fingerprint:
            return self._graph_cache[1]
        graph = self.load()
        self._graph_cache = (fingerprint, graph)
        return graph

    # -- load -----------------------------------------------------------

    def cell_payloads(
        self, max_n: int | None = None, max_m: int | None = None
    ) -> Iterator[dict]:
        """Stored cell payloads in ascending ``(n, m)``, optionally clipped.

        Each equals the :func:`cell_to_payload` dump the cell was built
        from; three table scans serve the whole rectangle, and rows are
        decoded one cell at a time as the payloads are consumed.
        """
        clip = "WHERE n <= ? AND m <= ?"
        bounds = (
            max_n if max_n is not None else 1 << 62,
            max_m if max_m is not None else 1 << 62,
        )
        nodes: dict[tuple[int, int], list[str]] = {}
        for n, m, blob in self._db.rows(
            f"SELECT n, m, payload FROM nodes {clip} ORDER BY n, m, idx", bounds
        ):
            nodes.setdefault((n, m), []).append(blob)
        certificates: dict[tuple[int, int], list[tuple[str, str]]] = {}
        for n, m, cert_id, blob in self._db.rows(
            f"SELECT n, m, cert_id, payload FROM certificates {clip}", bounds
        ):
            certificates.setdefault((n, m), []).append((cert_id, blob))
        for n, m, edges in self._db.rows(
            f"SELECT n, m, edges FROM cells {clip} ORDER BY n, m", bounds
        ):
            yield {
                "version": SCHEMA_VERSION,
                "n": n,
                "m": m,
                "nodes": [self._db.loads(blob) for blob in nodes.pop((n, m), ())],
                "edges": self._db.loads(edges),
                "certificates": {
                    cert_id: self._db.loads(blob)
                    for cert_id, blob in certificates.pop((n, m), ())
                },
            }

    def load(
        self,
        max_n: int | None = None,
        max_m: int | None = None,
        cross_family: bool = True,
        apply_overrides: bool = True,
    ) -> UniverseGraph:
        """Assemble the graph from every built cell (optionally clipped).

        Cross-family edges are derived from the loaded cell set; raises
        ``FileNotFoundError`` when the store holds no cells.  Verdict
        overrides from a previous close-open sweep are re-applied unless
        ``apply_overrides`` is off.
        """
        cells = [
            cell_from_payload(payload)
            for payload in self.cell_payloads(max_n, max_m)
        ]
        if not cells:
            raise FileNotFoundError(
                f"universe store at {self.root} has no built cells; run "
                "`python -m repro universe build` first"
            )
        graph = assemble(cells, cross_family=cross_family)
        if apply_overrides:
            self._apply_overrides(graph)
        return graph

    # -- close-open overrides -------------------------------------------

    def read_overrides(self) -> dict:
        """The close-open overrides document (empty before any sweep).

        Shaped ``{"version", "budget", "overrides": {"n,m,l,u": row}}``:
        the envelope lives in ``meta``, one row per closed node.
        """
        envelope = self._db.meta("overrides_envelope")
        if envelope is None:
            return {}
        document = dict(self._db.loads(envelope))
        document["overrides"] = {
            node_key: self._db.loads(blob)
            for node_key, blob in self._db.rows(
                "SELECT node_key, payload FROM overrides ORDER BY node_key"
            )
        }
        return document

    def _apply_overrides(self, graph: UniverseGraph) -> None:
        for raw_key, entry in self.read_overrides().get("overrides", {}).items():
            try:
                key = tuple(int(part) for part in raw_key.split(","))
                if key not in graph:
                    continue
                graph.override_node(
                    key,
                    solvability=entry["solvability"],
                    reason=entry["reason"],
                    certificate_id=entry.get("certificate_id", ""),
                    certificate_payload=entry.get("certificate"),
                )
            except (KeyError, TypeError, ValueError):
                continue  # malformed row: skip it, the rest still applies

    def apply_closures(
        self,
        closures: dict,
        budget_signature: dict,
        evidence: dict | None = None,
        open_entries: dict | None = None,
    ) -> int:
        """Commit verdict rows to the overrides and the decide cache.

        ``closures`` maps cell keys to rows carrying ``solvability``,
        ``reason``, ``tier``, ``procedure``, ``certificate_id`` and
        ``certificate``; ``evidence`` optionally attaches tier-4 evidence
        lines to closed keys, and ``open_entries`` warms the decide cache
        for cells that stayed OPEN (evidence lines per key).  Override
        rows, decide-cache rows and the new fingerprint commit in one
        transaction — this is the single funnel every closure producer
        (the in-process close-open sweep and the job-queue campaign
        runner alike) commits through, which is what makes replaying a
        campaign idempotent.  Returns the number of override rows
        written.
        """
        evidence = evidence or {}
        if not closures and not open_entries:
            # Nothing to commit: leave the overrides (and their budget
            # stamp) untouched so replaying a finished campaign is a
            # true no-op — same overrides, same fingerprint.
            return 0
        cache_entries: dict[tuple, dict] = {}
        for key, row in sorted(closures.items()):
            cache_entries[key] = {
                **row,
                "evidence": list(evidence.get(key, ())),
                "budget": budget_signature,
            }
        for key, entry in sorted((open_entries or {}).items()):
            if key not in closures:
                cache_entries[key] = {**entry, "budget": budget_signature}
        with self._db.transaction() as connection:
            connection.executemany(
                "INSERT OR REPLACE INTO overrides (node_key, payload) "
                "VALUES (?, ?)",
                (
                    (_node_key(key), json.dumps(row))
                    for key, row in sorted(closures.items())
                ),
            )
            envelope = {"version": SCHEMA_VERSION, "budget": budget_signature}
            self._db.set_meta(
                connection, "overrides_envelope", json.dumps(envelope)
            )
            self.decision_cache.put_many(cache_entries)
            self._store_fingerprint(connection)
        self._invalidate_read_caches()
        return len(closures)

    def close_open(self, budget=None, jobs: int = 0):
        """Run the close-open sweep (decision tiers 3-4) and persist it.

        Loads the graph *with* previous overrides applied — already
        persisted closures stay closed and seed further propagation —
        closes what the budgeted empirical tier and reduction closure
        can, then commits the new verdicts to the overrides and mirrors
        them (and the OPEN evidence) into the decision cache so
        ``decide`` calls are warm.  A re-run with a smaller budget can
        therefore never lose a previously certified closure.  Returns
        the :class:`repro.decision.procedures.CloseOpenReport`.
        """
        from ..decision.procedures import DecisionBudget, close_open as sweep

        budget = budget or DecisionBudget()
        graph = self.load()
        report = sweep(graph, budget)
        closures: dict[tuple, dict] = {}
        for key, result in report.closed.items():
            closures[key] = {
                "solvability": result.solvability.value,
                "reason": result.reason,
                "tier": result.tier,
                "procedure": result.procedure,
                "certificate_id": (
                    result.certificate.id
                    if result.certificate is not None
                    else ""
                ),
                "certificate": (
                    result.certificate.payload()
                    if result.certificate is not None
                    else None
                ),
            }
        # OPEN survivors with fresh evidence also warm the decide cache.
        open_entries: dict[tuple, dict] = {}
        for key, evidence in report.evidence.items():
            if key in report.closed:
                continue
            node = graph.node(key)
            open_entries[key] = {
                "solvability": node.solvability,
                "reason": node.reason,
                "tier": 4,
                "procedure": "decision-map",
                "certificate_id": None,
                "certificate": None,
                "evidence": list(evidence),
            }
        self.apply_closures(
            closures,
            budget.signature(),
            evidence=report.evidence,
            open_entries=open_entries,
        )
        return report

    def stats(self) -> dict:
        """Store-level summary counts, from the store file alone."""
        (cells, max_n, max_m, nodes, edges), = self._db.rows(
            "SELECT COUNT(*), COALESCE(MAX(n), 0), COALESCE(MAX(m), 0), "
            "COALESCE(SUM(node_count), 0), COALESCE(SUM(edge_count), 0) "
            "FROM cells"
        ) or [(0, 0, 0, 0, 0)]
        last_build = self._db.meta("last_build")
        return {
            "root": str(self.root),
            "version": SCHEMA_VERSION,
            "cells": cells,
            "max_n": max_n,
            "max_m": max_m,
            "nodes": nodes,
            "containment_edges": edges,
            "overrides": self._db.value("SELECT COUNT(*) FROM overrides", default=0),
            "last_build": None if last_build is None else json.loads(last_build),
        }
