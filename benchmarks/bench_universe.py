"""Experiment E-UNIVERSE: the cross-family reducibility map at build scale.

Workload: the universe subsystem end to end — cold materialization of a
parameter rectangle into the disk-backed store (every process-wide cache
cleared before each round), the close-open rectangle built cold once, the
warm (all cells reused) rebuild that makes incremental widening free,
graph assembly with cross-family edge derivation, cone queries, and the
DOT export.  The assertions pin the structural invariants (Figure 1's
cell, edge-kind counts, query results, the close-open rectangle's counts
and fingerprint) so a universe regression fails the suite rather than
silently shifting the timings.
"""

import itertools

from repro.analysis import PAPER_FIGURE1_EDGES
from repro.core.cache_config import clear_all_caches
from repro.core.store import clear_family_store
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

#: The rectangle ``perfbench``'s close-open workload builds.
FULL_N, FULL_M = 30, 8
FULL_FINGERPRINT = (
    "be44c93a284af62b8edcdf388b847aef5717c23df9932d320cd4fd2525a8ac7f"
)


def cold_store(root):
    """``setup`` for a cold pedantic round: a fresh store and no
    process-wide family store, kernel lattice or other memo left over
    from an earlier round."""
    clear_all_caches()
    clear_family_store()
    return (UniverseStore(root),), {}


def bench_universe_cold_build(benchmark, tmp_path):
    """Cold build: every cell computed and written to a fresh store."""
    fresh = itertools.count()

    report = benchmark.pedantic(
        lambda store: store.build(SMOKE_N, SMOKE_M),
        setup=lambda: cold_store(tmp_path / f"cold{next(fresh)}"),
        rounds=5,
    )
    assert report.cells_built == report.cells_total == SMOKE_N * SMOKE_M
    assert report.cells_reused == 0


def bench_universe_build_30x8(benchmark, tmp_path):
    """The close-open benchmark's rectangle, built cold in one round.

    Its counts and store fingerprint are pinned, and ride in
    ``extra_info``: a build that drops, adds or rewires a node fails
    here before its timing is compared.
    """
    stores = []

    def setup():
        args, kwargs = cold_store(tmp_path / "full")
        stores.append(args[0])
        return args, kwargs

    benchmark.pedantic(
        lambda store: store.build(FULL_N, FULL_M), setup=setup, rounds=1
    )
    stats = stores[0].stats()
    pinned = {
        "cells": stats["cells"],
        "nodes": stats["nodes"],
        "containment_edges": stats["containment_edges"],
        "fingerprint": stores[0].fingerprint(),
    }
    benchmark.extra_info.update(pinned)
    assert pinned == {
        "cells": 240,
        "nodes": 5797,
        "containment_edges": 8279,
        "fingerprint": FULL_FINGERPRINT,
    }


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
