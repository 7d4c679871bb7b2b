"""Experiment E-UNIVERSE: the cross-family reducibility map at build scale.

Workload: the universe subsystem end to end — cold materialization of a
parameter rectangle into the disk-backed store, the warm (all cells
reused) rebuild that makes incremental widening free, graph assembly with
cross-family edge derivation, cone queries, and the DOT export.  The
assertions pin the structural invariants (Figure 1's cell, edge-kind
counts, query results) so a universe regression fails the suite rather
than silently shifting the timings.
"""

import itertools

from repro.analysis import PAPER_FIGURE1_EDGES
from repro.universe import (
    UniverseStore,
    build_rectangle,
    harder_cone,
    single_cell_graph,
    solvability_frontier,
    universe_to_dot,
)

#: Smoke rectangle: small enough for CI, large enough to exercise every
#: edge kind (perfect-renaming cells up to n = 4, reductions at n <= 4).
SMOKE_N, SMOKE_M = 12, 4


def bench_universe_cold_build(benchmark, tmp_path):
    """Cold build: every cell computed and written to a fresh store."""
    fresh = itertools.count()

    def build():
        store = UniverseStore(tmp_path / f"cold{next(fresh)}")
        return store.build(SMOKE_N, SMOKE_M)

    report = benchmark(build)
    assert report.cells_built == report.cells_total == SMOKE_N * SMOKE_M
    assert report.cells_reused == 0


def bench_universe_warm_rebuild(benchmark, tmp_path):
    """Warm rebuild of the same rectangle: nothing recomputed."""
    store = UniverseStore(tmp_path / "warm")
    store.build(SMOKE_N, SMOKE_M)

    report = benchmark(store.build, SMOKE_N, SMOKE_M)
    assert report.cells_built == 0
    assert report.cells_reused == SMOKE_N * SMOKE_M


def bench_universe_incremental_widening(benchmark, tmp_path):
    """Widening the rectangle computes only the new column of cells."""
    fresh = itertools.count()

    def widen():
        store = UniverseStore(tmp_path / f"widen{next(fresh)}")
        store.build(SMOKE_N, SMOKE_M)
        return store.build(SMOKE_N + 2, SMOKE_M)

    report = benchmark(widen)
    assert report.cells_reused == SMOKE_N * SMOKE_M
    assert report.cells_built == 2 * SMOKE_M


def bench_universe_load_and_assemble(benchmark, tmp_path):
    """Load every stored cell and derive the cross-family edges."""
    store = UniverseStore(tmp_path / "load")
    store.build(SMOKE_N, SMOKE_M)

    graph = benchmark(store.load)
    stats = graph.stats()
    assert stats["cells"] == SMOKE_N * SMOKE_M
    assert stats["edges[theorem8]"] > 0
    assert stats["edges[reduction]"] > 0


def bench_universe_single_cell_is_figure1(benchmark):
    """The (6, 3) cell is exactly Figure 1 (nodes and cover edges)."""
    graph = benchmark(single_cell_graph, 6, 3)
    assert {
        (edge.source[2:], edge.target[2:]) for edge in graph.edges()
    } == PAPER_FIGURE1_EDGES


def bench_universe_queries(benchmark):
    """Cone + frontier queries over an in-memory rectangle."""
    graph = build_rectangle(SMOKE_N, SMOKE_M)

    def run_queries():
        cone = harder_cone(graph, (12, 3, 0, 12))
        frontier = solvability_frontier(graph)
        return cone, frontier

    cone, frontier = benchmark(run_queries)
    assert (12, 3, 4, 4) in cone  # the hardest <12,3> task
    assert sum(frontier.counts.values()) == graph.node_count


def bench_universe_dot_export(benchmark):
    graph = build_rectangle(8, 4)
    dot = benchmark(universe_to_dot, graph)
    assert dot.count(" -> ") == graph.edge_count
