"""Immediate-snapshot protocol complexes (the complexes of Theorem 11).

One round of immediate snapshot over processes ``0..n-1`` has one execution
per *ordered set partition* (B1, ..., Bk) of the process set: the blocks
take their write-snapshot steps block by block, and a process in block Bi
sees exactly ``B1 ∪ ... ∪ Bi``.  The executions' final-state simplexes form
the one-round protocol complex — combinatorially, the standard chromatic
subdivision of the (n-1)-simplex.

Iterating (the IIS model) composes rounds: the round-t input of a process
is its round-(t-1) view.  The r-round complex has one facet per r-tuple of
ordered partitions; its facets are the local-state vectors, from which
:class:`ISProtocolComplex` exposes the simplicial structure, chromatic
coloring (vertex = (pid, view)) and comparison-based canonical classes.

Facet counts are the ordered Bell numbers to the r-th power: n=2 -> 3^r,
n=3 -> 13^r, n=4 -> 75^r.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from ..core.cache_config import managed_cache
from .simplicial import SimplicialComplex
from .views import (
    View,
    base_view,
    canonical_local_state,
    is_solo_view,
    round_view,
)

Partition = tuple[frozenset[int], ...]


def ordered_partitions(elements: Sequence[int]) -> Iterator[Partition]:
    """All ordered set partitions of ``elements``.

    Recursive first-block enumeration; the count is the ordered Bell
    (Fubini) number of ``len(elements)``.
    """
    items = tuple(elements)
    if not items:
        yield ()
        return
    # Choose the first block as any nonempty subset, then recurse.
    for size in range(len(items), 0, -1):
        for chosen in itertools.combinations(items, size):
            first_block = frozenset(chosen)
            remaining = tuple(item for item in items if item not in first_block)
            for tail in ordered_partitions(remaining):
                yield (first_block, *tail)


@managed_cache("topology.ordered_bell_number")
def ordered_bell_number(n: int) -> int:
    """Number of ordered set partitions of an n-set (Fubini numbers)."""
    if n == 0:
        return 1
    import math

    return sum(
        math.comb(n, k) * ordered_bell_number(n - k) for k in range(1, n + 1)
    )


def one_round_states(
    states: dict[int, View], partition: Partition
) -> dict[int, View]:
    """Apply one immediate-snapshot round to per-process states."""
    new_states: dict[int, View] = {}
    seen: list[tuple[int, View]] = []
    for block in partition:
        for pid in sorted(block):
            seen.append((pid, states[pid]))
        snapshot = list(seen)
        for pid in sorted(block):
            new_states[pid] = round_view(snapshot)
    return new_states


class ISProtocolComplex:
    """The r-round immediate-snapshot protocol complex on n processes.

    Vertices are ``(pid, view)`` pairs; facets are the n-vertex final-state
    simplexes of the executions.  Canonical identities ``pid + 1`` make pid
    order equal identity order (Section 2's comparison-based collapse).
    """

    def __init__(self, n: int, rounds: int = 1):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if rounds < 1:
            raise ValueError(f"need at least one round, got {rounds}")
        self.n = n
        self.rounds = rounds
        self.executions: list[tuple[Partition, ...]] = []
        self.facet_states: list[dict[int, View]] = []
        initial = {pid: base_view(pid + 1) for pid in range(n)}
        partitions = list(ordered_partitions(range(n)))
        frontier: list[tuple[tuple[Partition, ...], dict[int, View]]] = [
            ((), initial)
        ]
        for _ in range(rounds):
            next_frontier = []
            for history, states in frontier:
                for partition in partitions:
                    next_frontier.append(
                        (history + (partition,), one_round_states(states, partition))
                    )
            frontier = next_frontier
        for history, states in frontier:
            self.executions.append(history)
            self.facet_states.append(states)

    # ------------------------------------------------------------------

    def facets(self) -> tuple[tuple[tuple[int, View], ...], ...]:
        """Facets as sorted (pid, view) vertex tuples (computed once)."""
        return self._facets

    @cached_property
    def _facets(self) -> tuple[tuple[tuple[int, View], ...], ...]:
        return tuple(
            tuple((pid, states[pid]) for pid in range(self.n))
            for states in self.facet_states
        )

    def to_simplicial(self) -> SimplicialComplex:
        return SimplicialComplex(self.facets())

    @staticmethod
    def color(vertex: tuple[int, View]) -> int:
        """Chromatic coloring: the process id of a vertex."""
        return vertex[0]

    def vertices(self) -> frozenset[tuple[int, View]]:
        """All vertices (computed once)."""
        return self._vertices

    @cached_property
    def _vertices(self) -> frozenset[tuple[int, View]]:
        return frozenset(vertex for facet in self._facets for vertex in facet)

    def canonical_classes(self) -> Mapping[tuple[int, View], View]:
        """Map each vertex to its comparison-based canonical class.

        The class of a vertex (pid, view) is the relabeled view *plus* the
        owner's rank among seen pids (a process knows its own identity).
        Computed once; the mapping is read-only.
        """
        return self._canonical_classes

    @cached_property
    def _canonical_classes(self) -> Mapping[tuple[int, View], View]:
        return MappingProxyType(
            {
                vertex: canonical_local_state(vertex[0], vertex[1])
                for vertex in self._vertices
            }
        )

    def solo_vertices(self) -> list[tuple[int, View]]:
        """The n vertices of the fully-solo executions."""
        return [
            vertex
            for vertex in self.vertices()
            if is_solo_view(vertex[1], self.rounds)
        ]

    def facet_count(self) -> int:
        return len(self.facet_states)

    def expected_facet_count(self) -> int:
        """``ordered_bell(n) ** rounds`` — cross-check for tests."""
        return ordered_bell_number(self.n) ** self.rounds

    def __repr__(self) -> str:
        return (
            f"ISProtocolComplex(n={self.n}, rounds={self.rounds}, "
            f"facets={self.facet_count()})"
        )
