"""The universe graph: the paper's map of all symmetry breaking tasks.

The paper's headline artifact is the partial order of *every* generalized
symmetry breaking task under containment and reduction, of which Figure 1
is the single ``<6,3,-,->`` slice.  This subpackage materializes that map
over a whole parameter rectangle as a persistent, queryable graph:

* :mod:`repro.universe.graph` — :class:`UniverseGraph` construction: nodes
  are synonym classes (one per canonical ``<n,m,l,u>``), intra-family
  strict-containment edges come from kernel-set bitmask subset tests, and
  cross-family edges are certified from Theorem 8 (universality of perfect
  renaming) and the executable reduction registry.
* :mod:`repro.universe.persist` — :class:`UniverseStore`, the disk-backed
  incremental store (parallel builds on the census LPT sharding; widening
  the rectangle only computes new cells).
* :mod:`repro.universe.storefile` — the store's one transactional SQLite
  file, ``universe.sqlite``: cells, per-node rows, certificates,
  close-open overrides and the decide cache, with the content
  fingerprint kept current by every write, so point lookups are one
  indexed row and a crash never leaves a half-written cell.
* :mod:`repro.universe.query` — harder/weaker cones, reduction paths, the
  solvability frontier, and incomparable-pair extraction.
* :mod:`repro.universe.export` — DOT / JSON / GraphML emitters.

CLI front-end: ``python -m repro universe build|query|export|stats|check``
plus the HTTP serving layer ``python -m repro serve``
(:mod:`repro.serve`).
"""

from .export import (
    render_universe_stats,
    universe_export,
    universe_to_dot,
    universe_to_graphml,
    universe_to_json,
    write_text,
)
from .graph import (
    EDGE_CONTAINMENT,
    EDGE_KINDS,
    EDGE_PADDING,
    EDGE_REDUCTION,
    EDGE_THEOREM8,
    NodeKey,
    UniverseCell,
    UniverseEdge,
    UniverseGraph,
    UniverseNode,
    add_cross_family_edges,
    assemble,
    build_cell,
    build_rectangle,
    kernel_bitmasks,
    rectangle_cells,
    single_cell_graph,
    task_node_key,
)
from .persist import HOT_CELLS, BuildReport, UniverseStore
from .query import (
    FrontierReport,
    canonical_task_key,
    harder_cone,
    incomparable_pairs,
    reduction_path,
    resolve_key,
    solvability_frontier,
    weaker_cone,
)
from .storefile import (
    SCHEMA_VERSION,
    STORE_FILENAME,
    StoreError,
    store_fingerprint,
)

__all__ = [
    "BuildReport",
    "EDGE_CONTAINMENT",
    "EDGE_KINDS",
    "EDGE_PADDING",
    "EDGE_REDUCTION",
    "EDGE_THEOREM8",
    "FrontierReport",
    "HOT_CELLS",
    "NodeKey",
    "SCHEMA_VERSION",
    "STORE_FILENAME",
    "StoreError",
    "UniverseCell",
    "UniverseEdge",
    "UniverseGraph",
    "UniverseNode",
    "UniverseStore",
    "add_cross_family_edges",
    "assemble",
    "build_cell",
    "build_rectangle",
    "canonical_task_key",
    "harder_cone",
    "incomparable_pairs",
    "kernel_bitmasks",
    "rectangle_cells",
    "reduction_path",
    "render_universe_stats",
    "resolve_key",
    "single_cell_graph",
    "solvability_frontier",
    "store_fingerprint",
    "task_node_key",
    "universe_export",
    "universe_to_dot",
    "universe_to_graphml",
    "universe_to_json",
    "weaker_cone",
    "write_text",
]
