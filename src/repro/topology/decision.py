"""Decision maps on protocol complexes.

A wait-free comparison-based protocol that decides after r immediate
snapshot rounds is exactly a *decision map*: an assignment of an output
value to every comparison-based canonical vertex class of the r-round
protocol complex, such that every facet's decision vector is a legal
output of the task.  Searching that (finite) space therefore decides
"is T solvable by an r-round comparison-based IIS protocol" exactly —
refutations for growing r mechanize impossibility evidence, and found maps
are constructive solvability certificates (e.g. one-round comparison-based
(2n-1)-renaming for n = 2).

The search is a backtracking CSP over canonical classes with each facet's
constraint checked, as a partial vector, whenever one of its classes is
assigned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..core.gsb import GSBTask
from .is_complex import ISProtocolComplex
from .views import View


@dataclass
class DecisionSearchResult:
    """Outcome of a decision-map search."""

    task: GSBTask
    rounds: int
    classes: int
    facets: int
    assignments_tried: int
    decision_map: dict[View, int] | None

    @property
    def solvable(self) -> bool:
        return self.decision_map is not None


def facet_decisions(
    facet: Sequence[tuple[int, View]],
    classes: Mapping[tuple[int, View], View],
    assignment: dict[View, int],
) -> list[int | None]:
    """Decisions of a facet's vertices under a (partial) assignment."""
    return [assignment.get(classes[vertex]) for vertex in facet]


def decision_class_order(complex_: ISProtocolComplex) -> list[View]:
    """Canonical classes in deterministic first-appearance order.

    Shared by the search below and by decision-map certificates
    (:mod:`repro.decision.certificates`), which serialize an assignment
    as a list of values in exactly this order — keeping the two in one
    place is what makes the serialized form replayable.
    """
    classes = complex_.canonical_classes()
    class_order: list[View] = []
    seen: set[View] = set()
    for facet in complex_.facets():
        for vertex in facet:
            label = classes[vertex]
            if label not in seen:
                seen.add(label)
                class_order.append(label)
    return class_order


def search_decision_map(
    task: GSBTask,
    complex_: ISProtocolComplex,
    max_assignments: int = 5_000_000,
) -> DecisionSearchResult:
    """Search for a comparison-based decision map solving ``task``.

    Classes are ordered by first appearance in facets so each facet's
    constraint becomes checkable as early as possible: assigning a class
    re-checks every facet it appears in, and a facet must still extend
    to a legal output (:meth:`GSBTask.is_legal_partial_output`), which
    prunes far earlier than waiting for full assignment.

    The check runs on per-facet counters updated on assign and unassign:
    the decided count of each value, and the *slack* ``remaining -
    deficit`` (undecided entries minus the lower-bound shortfall).  Only
    the assigned value's count changes (every other count passed its
    upper bound when it last grew), so a facet stays extendable iff that
    count is within its upper bound and the slack is non-negative;
    ``remaining <= headroom`` reduces to ``n <= sum(u_v)``, a property of
    the task alone.
    """
    if task.n != complex_.n:
        raise ValueError(
            f"task is on {task.n} processes but the complex has {complex_.n}"
        )
    classes = complex_.canonical_classes()
    facets = complex_.facets()
    class_order = decision_class_order(complex_)

    # For each class, the facets it appears in and its multiplicity there.
    position = {label: index for index, label in enumerate(class_order)}
    touching: list[list[tuple[int, int]]] = [[] for _ in class_order]
    for facet_index, facet in enumerate(facets):
        mult: dict[int, int] = {}
        for vertex in facet:
            class_index = position[classes[vertex]]
            mult[class_index] = mult.get(class_index, 0) + 1
        for class_index, count in mult.items():
            touching[class_index].append((facet_index, count))

    m = task.m
    lows = (0, *task.bounds.lower)
    highs = (0, *task.bounds.upper)
    extendable = task.n <= sum(task.bounds.upper)
    counts = [[0] * len(facets) for _ in range(m + 1)]
    slack = [task.n - sum(task.bounds.lower)] * len(facets)

    def assign(class_index: int, value: int) -> bool:
        """Count ``value`` into every facet of the class, or change nothing
        and return False when one of them stops being extendable."""
        if not extendable:
            return False
        decided, low, high = counts[value], lows[value], highs[value]
        facets_of = touching[class_index]
        for done, (facet_index, count) in enumerate(facets_of):
            before = decided[facet_index]
            after = before + count
            left = slack[facet_index] - count
            if low > before:
                left += min(count, low - before)
            if after > high or left < 0:
                for undone, undo_count in facets_of[:done]:
                    unassign_one(decided, low, undone, undo_count)
                return False
            decided[facet_index] = after
            slack[facet_index] = left
        return True

    def unassign_one(decided, low, facet_index: int, count: int) -> None:
        before = decided[facet_index] - count
        decided[facet_index] = before
        slack[facet_index] += count
        if low > before:
            slack[facet_index] -= min(count, low - before)

    def unassign(class_index: int, value: int) -> None:
        decided, low = counts[value], lows[value]
        for facet_index, count in touching[class_index]:
            unassign_one(decided, low, facet_index, count)

    # Depth-first over classes in order; symmetric tasks are invariant
    # under value permutation, so the first class is pinned to value 1
    # without loss of generality.
    last_value = [m] * len(class_order)
    if class_order and task.is_symmetric:
        last_value[0] = 1
    next_value = [1] * len(class_order)
    assignment: list[int | None] = [None] * len(class_order)
    tried = 0
    depth = 0
    found = False
    while True:
        if depth == len(class_order):
            found = True
            break
        value = next_value[depth]
        if value > last_value[depth]:
            next_value[depth] = 1
            depth -= 1
            if depth < 0:
                break
            unassign(depth, assignment[depth])
            assignment[depth] = None
            continue
        next_value[depth] = value + 1
        tried += 1
        if tried > max_assignments:
            raise RuntimeError(
                f"decision-map search exceeded {max_assignments} "
                "assignments; reduce n or rounds"
            )
        if assign(depth, value):
            assignment[depth] = value
            depth += 1

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


def verify_decision_map(
    task: GSBTask,
    complex_: ISProtocolComplex,
    decision_map: dict[View, int],
) -> list[str]:
    """Independent check of a decision map; returns violations (if any)."""
    classes = complex_.canonical_classes()
    problems = []
    for facet in complex_.facets():
        missing = [vertex for vertex in facet if classes[vertex] not in decision_map]
        if missing:
            problems.append(f"facet {facet} has unmapped vertices {missing}")
            continue
        output = [decision_map[classes[vertex]] for vertex in facet]
        if not task.is_legal_output(output):
            problems.append(f"facet decisions {output} illegal for {task}")
    return problems
