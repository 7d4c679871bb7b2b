"""The predicate-based backtracker as the differential oracle for
``search_decision_map``.

This is the search :mod:`repro.topology.decision` shipped before facet
legality moved onto per-facet counters: every assignment rebuilds each
touched facet's partial output vector and asks
:meth:`GSBTask.is_legal_partial_output`, recursing once per class.  The
counter-based search must visit the same assignments in the same order —
the same ``assignments_tried`` and ``decision_map`` and the same budget
overruns — which ``test_decision.py`` and ``tests/sweep/test_sat.py``
check on every small task.
"""

from __future__ import annotations

from repro.core.gsb import GSBTask
from repro.topology.decision import DecisionSearchResult, decision_class_order
from repro.topology.is_complex import ISProtocolComplex


def reference_search_decision_map(
    task: GSBTask,
    complex_: ISProtocolComplex,
    max_assignments: int = 5_000_000,
) -> DecisionSearchResult:
    """Search for a comparison-based decision map solving ``task``.

    Classes are ordered by first appearance in facets so each facet's
    constraint becomes checkable as early as possible; a facet whose
    classes are all assigned must already form a legal output vector.
    """
    if task.n != complex_.n:
        raise ValueError(
            f"task is on {task.n} processes but the complex has {complex_.n}"
        )
    classes = complex_.canonical_classes()
    facets = complex_.facets()
    class_order = decision_class_order(complex_)

    # Facets as class-index vectors, and for each class the facets touching
    # it: assigning a class triggers a *partial* legality check on each of
    # its facets, which prunes far earlier than waiting for full assignment.
    position = {label: index for index, label in enumerate(class_order)}
    facet_class_indexes = [
        [position[classes[vertex]] for vertex in facet] for facet in facets
    ]
    facets_touching: list[list[int]] = [[] for _ in class_order]
    for facet_index, members in enumerate(facet_class_indexes):
        for class_index in set(members):
            facets_touching[class_index].append(facet_index)

    values = list(range(1, task.m + 1))
    assignment: list[int | None] = [None] * len(class_order)
    tried = 0

    def facet_still_satisfiable(facet_index: int) -> bool:
        partial = [
            assignment[class_index]
            for class_index in facet_class_indexes[facet_index]
        ]
        return task.is_legal_partial_output(partial)

    def backtrack(depth: int) -> bool:
        nonlocal tried
        if depth == len(class_order):
            return True
        # Symmetric tasks are invariant under value permutation: pin the
        # first class to value 1 without loss of generality.
        domain = [1] if (depth == 0 and task.is_symmetric) else values
        for value in domain:
            tried += 1
            if tried > max_assignments:
                raise RuntimeError(
                    f"decision-map search exceeded {max_assignments} "
                    "assignments; reduce n or rounds"
                )
            assignment[depth] = value
            if all(
                facet_still_satisfiable(index) for index in facets_touching[depth]
            ):
                if backtrack(depth + 1):
                    return True
            assignment[depth] = None
        return False

    found = backtrack(0)
    assignment_map = {
        class_order[index]: value
        for index, value in enumerate(assignment)
        if value is not None
    }
    return DecisionSearchResult(
        task=task,
        rounds=complex_.rounds,
        classes=len(class_order),
        facets=len(facets),
        assignments_tried=tried,
        decision_map=assignment_map if found else None,
    )
