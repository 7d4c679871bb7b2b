"""The object-path cell builder as the differential oracle for ``build_cell``.

This is how :func:`repro.universe.graph.build_cell` worked before cells
were built from parameters and masks alone: it asks the family store for
a full :class:`repro.core.store.FamilyRecord` (a ``GSBTask``, kernel set,
anchoring profile and classifier verdict per feasible ``(l, u)`` pair),
reads the masks off the store's kernel columns one column at a time, and
takes the cover edges from networkx's ``transitive_reduction``.  The fast
builder must reproduce it byte for byte (``cell_to_payload``), which
``test_closed_form_cells.py`` checks cell by cell.  It costs ~3x the fast
builder, so the suites compare it on a bounded rectangle.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

from repro.core.order import hardest_parameters
from repro.core.store import get_store
from repro.universe.graph import (
    EDGE_CONTAINMENT,
    UniverseCell,
    UniverseEdge,
    UniverseNode,
    _family_labels,
)


def reference_kernel_bitmasks(
    n: int, m: int, pairs: Iterable[tuple[int, int]]
) -> dict[tuple[int, int], int]:
    """Kernel-set bitmasks, one bit test per column and pair."""
    columns = get_store().kernel_columns(n, m)
    masks: dict[tuple[int, int], int] = {}
    for low, high in pairs:
        if (low, high) in masks:
            continue
        mask = 0
        for bit, vector in enumerate(columns):
            if vector[0] <= high and vector[-1] >= low:
                mask |= 1 << bit
        masks[(low, high)] = mask
    return masks


def reference_build_cell(n: int, m: int) -> UniverseCell:
    """Materialize one family's synonym classes and cover edges."""
    from repro.decision.procedures import structural_verdict

    record = get_store().family(n, m)
    # Masks are only needed per node; synonyms share their canonical
    # representative's kernel set, so non-canonical pairs are skipped.
    masks = reference_kernel_bitmasks(
        n,
        m,
        [
            (entry.parameters[2], entry.parameters[3])
            for entry in record.canonical_entries
        ],
    )
    synonyms: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for entry in record.entries:
        low, high = entry.parameters[2], entry.parameters[3]
        synonyms.setdefault(entry.canonical_parameters, []).append((low, high))
    labels = _family_labels(n, m)
    hardest_pair = hardest_parameters(n, m)

    nodes = []
    certificates: dict[str, dict] = {}
    for entry in record.canonical_entries:
        low, high = entry.parameters[2], entry.parameters[3]
        verdict = structural_verdict(n, m, low, high)
        certificate_id = ""
        if verdict.certificate is not None:
            certificate_id = verdict.certificate.id
            certificates[certificate_id] = verdict.certificate.payload()
        nodes.append(
            UniverseNode(
                key=(n, m, low, high),
                solvability=verdict.solvability.value,
                reason=verdict.reason,
                kernel_count=len(entry.kernel_set),
                synonyms=tuple(sorted(synonyms[(low, high)])),
                labels=labels.get((low, high), ()),
                mask=masks[(low, high)],
                hardest=(low, high) == hardest_pair,
                certificate_id=certificate_id,
            )
        )

    dag = nx.DiGraph()
    dag.add_nodes_from(node.key for node in nodes)
    for outer in nodes:
        for inner in nodes:
            if inner.mask != outer.mask and inner.mask & ~outer.mask == 0:
                dag.add_edge(outer.key, inner.key)
    covers = nx.transitive_reduction(dag)
    edges = tuple(
        UniverseEdge(source, target, EDGE_CONTAINMENT)
        for source, target in sorted(covers.edges)
    )
    return UniverseCell(
        n=n, m=m, nodes=tuple(nodes), edges=edges, certificates=certificates
    )
