"""Construction of the universe graph (the cross-family reducibility map).

Nodes are *synonym classes*: one per canonical ``<n, m, l, u>`` task
(Theorem 7), annotated with its solvability verdict (Theorems 9-11), its
kernel-set size, the full list of ``(l, u)`` parameterizations that
collapse onto it (the Theorem 6 bound-tightening inclusions, iterated to
the fixed point), and the paper's named-task labels.

Three edge kinds, all with one uniform meaning — ``u -> v`` says *a
solution of v yields a solution of u* (v is at least as hard as u):

* ``containment`` — intra-family cover edges of the strict-containment
  order (Section 4.4).  ``S(v) subset S(u)`` means every v-legal output is
  u-legal, so v's algorithm solves u directly.  Computed by kernel-set
  **bitmask** subset tests over the family's master column list instead of
  pairwise ``includes()`` on task objects, then transitively reduced in
  integer ops, so a cell's edges are exactly its Figure-1 Hasse diagram.
* ``theorem8`` — universality of perfect renaming: ``<n, n, 1, 1>`` solves
  every GSB task on n processes.  One edge per family, from the family's
  hardest node (Theorem 5's unique sink, which every sibling already
  reaches through containment edges) to the perfect-renaming node, keeps
  the materialized edge set linear while preserving reachability.
* ``reduction`` — certified by :data:`repro.algorithms.reductions.REDUCTIONS`:
  each registry entry that consumes a task oracle contributes
  ``target -> oracle`` edges at every n where both endpoints are nodes.
  Registry entries that solve their target from registers alone become
  *certificates* (:attr:`UniverseGraph.certificates`) instead of edges.
* ``padding`` — value padding: with no lower bound, a task over fewer
  values is harder (its outputs zero-extend), so every canonical
  ``<n, m, 0, u>`` node points at the canonical class of
  ``<n, m-1, 0, u>`` when that family is feasible and present.  These
  edges materialize the renaming ladder across families and are what
  lets reduction closure (tier 3 of :mod:`repro.decision`) move
  verdicts between ``m``-columns.

Node verdicts are the *structural* tiers of the decision pipeline
(:func:`repro.decision.procedures.structural_verdict`): the certified
closed forms plus value-padding arguments — deterministic, budget-free,
so cells remain a pure function of ``(n, m)``.  Every non-OPEN node
carries the content-hash id of its machine-checkable certificate; the
payloads ride along in :attr:`UniverseCell.certificates` and are exposed
via :meth:`UniverseGraph.certificate_payload`.

Cells (one per ``(n, m)``) are independent, which is what the persistence
layer shards on; cross-family edges are derived at assembly time from
whichever cells are present, so they never have to be stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import networkx as nx

from ..core.bounds import GSBSpecificationError
from ..core.canonical import canonical_parameters
from ..core.feasibility import feasible_bound_pairs, is_feasible_symmetric
from ..core.gsb import GSBTask, SymmetricGSBTask
# Re-exported: the universe builds on the same masks that power
# core.order's containment_digraph.
from ..core.order import hardest_parameters, kernel_bitmasks

NodeKey = tuple[int, int, int, int]  # canonical (n, m, l, u)

EDGE_CONTAINMENT = "containment"
EDGE_THEOREM8 = "theorem8"
EDGE_REDUCTION = "reduction"
EDGE_PADDING = "padding"
EDGE_KINDS = (EDGE_CONTAINMENT, EDGE_PADDING, EDGE_REDUCTION, EDGE_THEOREM8)


@dataclass(frozen=True)
class UniverseNode:
    """One synonym class of the universe: a canonical symmetric task."""

    key: NodeKey
    solvability: str  # Solvability enum value
    reason: str
    kernel_count: int
    synonyms: tuple[tuple[int, int], ...]  # every (l, u) collapsing here
    labels: tuple[str, ...]  # paper names (WSB, m-renaming, ...)
    mask: int  # kernel-set bitmask over the family's master columns
    hardest: bool  # Theorem 5: the family's unique containment sink
    certificate_id: str = ""  # content hash of the verdict's certificate

    @property
    def n(self) -> int:
        return self.key[0]

    @property
    def m(self) -> int:
        return self.key[1]

    @property
    def low(self) -> int:
        return self.key[2]

    @property
    def high(self) -> int:
        return self.key[3]

    @property
    def family(self) -> tuple[int, int]:
        return (self.key[0], self.key[1])


@dataclass(frozen=True)
class UniverseEdge:
    """``source -> target``: a solution of target yields one of source."""

    source: NodeKey
    target: NodeKey
    kind: str
    label: str = ""


@dataclass(frozen=True)
class UniverseCell:
    """One ``(n, m)`` family's nodes, cover edges and certificates."""

    n: int
    m: int
    nodes: tuple[UniverseNode, ...]
    edges: tuple[UniverseEdge, ...]  # containment covers only
    #: certificate payloads keyed by content-hash id (never hash a cell)
    certificates: dict = field(default_factory=dict)


def rectangle_cells(max_n: int, max_m: int) -> list[tuple[int, int]]:
    """All ``(n, m)`` cells of a parameter rectangle.

    Unlike the census grid, cells with ``m > n`` are included: they are
    non-empty (every ``<n, m, 0, u>`` with ``m*u >= n`` is feasible) and
    hold the renaming ladder — ``(2n-1)``-renaming lives at ``m = 2n-1``.
    """
    if max_n < 1 or max_m < 1:
        raise ValueError(f"need max_n, max_m >= 1, got {max_n}, {max_m}")
    return [(n, m) for n in range(1, max_n + 1) for m in range(1, max_m + 1)]


def _family_labels(n: int, m: int) -> dict[tuple[int, int], tuple[str, ...]]:
    """Named-task labels per canonical ``(l, u)`` key of one family."""
    found: dict[tuple[int, int], list[str]] = {}

    def add(low: int, high: int, name: str) -> None:
        if is_feasible_symmetric(n, m, low, high):
            key = canonical_parameters(n, m, max(low, 0), min(high, n))
            found.setdefault(key, []).append(name)

    if m == 2 and n >= 2:
        add(1, n - 1, "WSB")
        for k in range(2, n // 2 + 1):
            add(k, n - k, f"{k}-WSB")
    if m >= n:
        add(0, 1, f"{m}-renaming")
    if m == n:
        add(1, 1, "perfect-renaming")
    if 1 <= m <= n:
        add(1, n, f"{m}-slot")
    return {key: tuple(names) for key, names in found.items()}


def build_cell(n: int, m: int) -> UniverseCell:
    """Materialize one family's synonym classes and cover edges.

    Built from parameters and masks alone: every feasible ``(l, u)`` maps
    through :func:`canonical_parameters` to its synonym class, the classes
    are listed in Table 1 order (decreasing u, then increasing l), and
    each class's kernel set is its :func:`kernel_bitmasks` mask.  The
    cover edges are the transitive reduction of strict mask containment,
    done in integer ops, so the cell's edge set *is* the family's
    Figure-1 Hasse diagram.  Verdicts come from the structural decision
    tiers (certified closed forms plus value padding), and every non-OPEN
    node carries its certificate id with the payload stored on the cell.
    """
    # Imported lazily: the decision package sits above core and below the
    # universe in the layer order, and only cell *construction* needs it.
    from ..decision.procedures import structural_verdict

    synonyms: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for low, high in feasible_bound_pairs(n, m):
        key = canonical_parameters(n, m, low, high)
        synonyms.setdefault(key, []).append((low, high))
    pairs = sorted(synonyms, key=lambda pair: (-pair[1], pair[0]))
    masks = kernel_bitmasks(n, m, pairs)
    labels = _family_labels(n, m)
    hardest_pair = hardest_parameters(n, m)

    nodes = []
    certificates: dict[str, dict] = {}
    for low, high in pairs:
        verdict = structural_verdict(n, m, low, high)
        certificate_id = ""
        if verdict.certificate is not None:
            certificate_id = verdict.certificate.id
            certificates[certificate_id] = verdict.certificate.payload()
        mask = masks[(low, high)]
        nodes.append(
            UniverseNode(
                key=(n, m, low, high),
                solvability=verdict.solvability.value,
                reason=verdict.reason,
                kernel_count=mask.bit_count(),
                synonyms=tuple(sorted(synonyms[(low, high)])),
                labels=labels.get((low, high), ()),
                mask=mask,
                hardest=(low, high) == hardest_pair,
                certificate_id=certificate_id,
            )
        )

    covers = sorted(
        (nodes[outer].key, nodes[inner].key)
        for outer, inner in _cover_pairs([node.mask for node in nodes])
    )
    edges = tuple(
        UniverseEdge(source, target, EDGE_CONTAINMENT)
        for source, target in covers
    )
    return UniverseCell(
        n=n, m=m, nodes=tuple(nodes), edges=edges, certificates=certificates
    )


def _bits(bitset: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative int, ascending."""
    while bitset:
        lowest = bitset & -bitset
        yield lowest.bit_length() - 1
        bitset ^= lowest


def _cover_pairs(masks: Sequence[int]) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)`` where mask j is covered by mask i.

    ``below[i]`` is the bitset of the masks strictly inside mask i.  Strict
    containment is transitive, so j is a cover of i exactly when it lies
    below i but below none of the masks below i.
    """
    below = [
        sum(
            1 << j
            for j, inner in enumerate(masks)
            if inner != outer and inner | outer == outer
        )
        for outer in masks
    ]
    covers = []
    for outer, inside in enumerate(below):
        deeper = 0
        for inner in _bits(inside):
            deeper |= below[inner]
        covers.extend((outer, inner) for inner in _bits(inside & ~deeper))
    return covers


class UniverseGraph:
    """The assembled reducibility map over a set of ``(n, m)`` cells."""

    def __init__(self) -> None:
        self._nodes: dict[NodeKey, UniverseNode] = {}
        self._out: dict[NodeKey, list[UniverseEdge]] = {}
        self._in: dict[NodeKey, list[UniverseEdge]] = {}
        self._edges: list[UniverseEdge] = []
        self._edge_keys: set[tuple] = set()
        self._families: dict[tuple[int, int], list[NodeKey]] = {}
        self.cells: set[tuple[int, int]] = set()
        #: node -> registry reductions solving it from registers alone.
        self.certificates: dict[NodeKey, tuple[str, ...]] = {}
        #: content-hash id -> machine-checkable certificate payload.
        self.certificate_payloads: dict[str, dict] = {}

    # -- construction ---------------------------------------------------

    def add_cell(self, cell: UniverseCell) -> None:
        if (cell.n, cell.m) in self.cells:
            raise ValueError(f"cell ({cell.n}, {cell.m}) added twice")
        self.cells.add((cell.n, cell.m))
        for node in cell.nodes:
            self._nodes[node.key] = node
            self._families.setdefault((cell.n, cell.m), []).append(node.key)
        self.certificate_payloads.update(cell.certificates)
        for edge in cell.edges:
            self.add_edge(edge)

    def override_node(
        self,
        key: NodeKey,
        solvability: str,
        reason: str,
        certificate_id: str,
        certificate_payload: dict | None = None,
    ) -> None:
        """Replace one node's verdict (close-open results at load time)."""
        from dataclasses import replace

        node = self._nodes[key]
        self._nodes[key] = replace(
            node,
            solvability=solvability,
            reason=reason,
            certificate_id=certificate_id,
        )
        if certificate_payload is not None and certificate_id:
            self.certificate_payloads[certificate_id] = certificate_payload

    def add_edge(self, edge: UniverseEdge) -> bool:
        """Add one edge (idempotent); endpoints must already be nodes."""
        if edge.source not in self._nodes or edge.target not in self._nodes:
            raise KeyError(f"edge {edge} has an endpoint outside the graph")
        dedupe = (edge.source, edge.target, edge.kind, edge.label)
        if dedupe in self._edge_keys:
            return False
        self._edge_keys.add(dedupe)
        self._edges.append(edge)
        self._out.setdefault(edge.source, []).append(edge)
        self._in.setdefault(edge.target, []).append(edge)
        return True

    def add_certificate(self, key: NodeKey, name: str) -> None:
        current = self.certificates.get(key, ())
        if name not in current:
            self.certificates[key] = tuple(sorted((*current, name)))

    def certificate_payload(self, certificate_id: str) -> dict | None:
        """The stored payload for a certificate id, or None."""
        return self.certificate_payloads.get(certificate_id)

    # -- access ---------------------------------------------------------

    def __contains__(self, key: object) -> bool:
        return key in self._nodes

    def node(self, key: NodeKey) -> UniverseNode:
        return self._nodes[key]

    def nodes(self) -> Iterator[UniverseNode]:
        yield from self._nodes.values()

    def edges(self, kinds: Sequence[str] | None = None) -> Iterator[UniverseEdge]:
        for edge in self._edges:
            if kinds is None or edge.kind in kinds:
                yield edge

    def successors(self, key: NodeKey) -> tuple[UniverseEdge, ...]:
        return tuple(self._out.get(key, ()))

    def predecessors(self, key: NodeKey) -> tuple[UniverseEdge, ...]:
        return tuple(self._in.get(key, ()))

    def family_nodes(self, n: int, m: int) -> tuple[UniverseNode, ...]:
        return tuple(self._nodes[key] for key in self._families.get((n, m), ()))

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def stats(self) -> dict[str, int]:
        """Summary counts: cells, nodes, edges per kind, verdict split."""
        by_kind = {kind: 0 for kind in EDGE_KINDS}
        for edge in self._edges:
            by_kind[edge.kind] = by_kind.get(edge.kind, 0) + 1
        verdicts: dict[str, int] = {}
        certified = 0
        for node in self._nodes.values():
            verdicts[node.solvability] = verdicts.get(node.solvability, 0) + 1
            certified += bool(node.certificate_id)
        return {
            "cells": len(self.cells),
            "nodes": len(self._nodes),
            "edges": len(self._edges),
            **{f"edges[{kind}]": count for kind, count in sorted(by_kind.items())},
            **{
                f"solvability[{name}]": count
                for name, count in sorted(verdicts.items())
            },
            "certified_nodes": certified,
            "certificate_payloads": len(self.certificate_payloads),
            "register_certified": len(self.certificates),
        }

    def to_networkx(self, kinds: Sequence[str] | None = None) -> nx.DiGraph:
        """networkx view (node/edge attributes mirror the dataclasses)."""
        graph = nx.DiGraph()
        for key, node in self._nodes.items():
            graph.add_node(
                key,
                solvability=node.solvability,
                labels=node.labels,
                hardest=node.hardest,
                kernel_count=node.kernel_count,
            )
        for edge in self.edges(kinds):
            graph.add_edge(edge.source, edge.target, kind=edge.kind, label=edge.label)
        return graph


def task_node_key(graph: UniverseGraph, task: GSBTask) -> NodeKey | None:
    """The graph node a task canonicalizes to, or None.

    None when the task is asymmetric (the universe's nodes are symmetric
    synonym classes), infeasible, or outside the built rectangle.
    """
    if not task.is_symmetric:
        return None
    symmetric = (
        task if isinstance(task, SymmetricGSBTask) else task.as_symmetric()
    )
    if not symmetric.is_feasible:
        return None
    n, m, low, high = symmetric.parameters
    key = (n, m, *canonical_parameters(n, m, low, high))
    return key if key in graph else None


def add_cross_family_edges(graph: UniverseGraph) -> None:
    """Derive theorem8, reduction and padding edges from the cells present."""
    _add_theorem8_edges(graph)
    _add_reduction_edges(graph)
    _add_padding_edges(graph)


def _add_theorem8_edges(graph: UniverseGraph) -> None:
    for n, m in sorted(graph.cells):
        perfect_key = (n, n, 1, 1)
        if perfect_key not in graph:
            continue  # the (n, n) cell is outside the rectangle
        hardest_key = (n, m, *hardest_parameters(n, m))
        if hardest_key == perfect_key:
            continue
        # Every cell materializes its hardest node, so a missing key here
        # would be a construction bug, not an out-of-rectangle condition.
        assert hardest_key in graph, hardest_key
        graph.add_edge(
            UniverseEdge(hardest_key, perfect_key, EDGE_THEOREM8, "Theorem 8")
        )


def _add_reduction_edges(graph: UniverseGraph) -> None:
    # Imported lazily: the registry pulls in the shm runtime and every
    # protocol module, none of which graph construction otherwise needs.
    from ..algorithms.reductions import REDUCTIONS

    if not graph.cells:
        return
    max_n = max(n for n, _ in graph.cells)
    for name in sorted(REDUCTIONS):
        reduction = REDUCTIONS[name]
        for n in range(reduction.min_n, max_n + 1):
            try:
                target_key = task_node_key(graph, reduction.target(n))
            except GSBSpecificationError:
                continue
            if target_key is None:
                continue
            if reduction.oracle is None:
                graph.add_certificate(target_key, name)
                continue
            try:
                oracle_key = task_node_key(graph, reduction.oracle(n))
            except GSBSpecificationError:
                continue
            if oracle_key is None or oracle_key == target_key:
                continue
            graph.add_edge(
                UniverseEdge(target_key, oracle_key, EDGE_REDUCTION, name)
            )


def _add_padding_edges(graph: UniverseGraph) -> None:
    """Value-padding edges: ``<n, m, 0, u> -> <n, m-1, 0, u>``.

    With no lower bound, a solution over fewer values is a solution over
    more (unused values stay at count 0, which ``l = 0`` allows), so the
    task on ``m-1`` values is at least as hard.  One edge per adjacent
    ``m`` keeps the set linear; chains reach every smaller m.  The target
    key is the canonical class of the padded parameters — padding often
    lands on a synonym (e.g. ``<n, n, 0, 1>`` is perfect renaming).
    """
    for key in sorted(graph._nodes):
        n, m, low, high = key
        if low != 0 or m < 2 or high < 1:
            continue
        if not is_feasible_symmetric(n, m - 1, 0, high):
            continue
        target = (n, m - 1, *canonical_parameters(n, m - 1, 0, min(high, n)))
        if target in graph and target != key:
            graph.add_edge(
                UniverseEdge(key, target, EDGE_PADDING, "value padding")
            )


def assemble(
    cells: Iterable[UniverseCell], cross_family: bool = True
) -> UniverseGraph:
    """Build a :class:`UniverseGraph` from cells, plus derived cross edges."""
    graph = UniverseGraph()
    for cell in cells:
        graph.add_cell(cell)
    if cross_family:
        add_cross_family_edges(graph)
    return graph


def single_cell_graph(n: int, m: int) -> UniverseGraph:
    """One family's slice of the universe (Figure 1's view), no cross edges."""
    return assemble([build_cell(n, m)], cross_family=False)


def build_rectangle(
    max_n: int, max_m: int, cross_family: bool = True
) -> UniverseGraph:
    """In-memory build of a whole rectangle (the disk-backed path is
    :class:`repro.universe.persist.UniverseStore`)."""
    return assemble(
        (build_cell(n, m) for n, m in rectangle_cells(max_n, max_m)),
        cross_family=cross_family,
    )
