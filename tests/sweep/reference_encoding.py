"""The closure-based CNF encoder as the differential oracle for
``encode_decision_map``.

This is the encoder :mod:`repro.sweep.sat` shipped before the per-literal
``var()`` calls and the per-clause rebuild of the value-precede chain
were taken out.  The fast encoder must emit exactly the same sorted
clause tuple, which ``test_sat.py`` checks on every small cell.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from repro.core.gsb import GSBTask
from repro.sweep.sat import DecisionMapEncoding
from repro.topology.decision import decision_class_order
from repro.topology.is_complex import ISProtocolComplex


def _facet_value_clauses(
    mult: dict[int, int], low: int, high: int, m: int, var
) -> Iterable[tuple[int, ...]]:
    """Counting clauses for one facet (class index -> multiplicity)."""
    distinct = sorted(mult)
    # At most ``high`` per value: forbid minimal over-threshold subsets.
    for size in range(1, len(distinct) + 1):
        for subset in itertools.combinations(distinct, size):
            total = sum(mult[c] for c in subset)
            if total < high + 1:
                continue
            if all(total - mult[c] < high + 1 for c in subset):
                for value in range(1, m + 1):
                    yield tuple(-var(c, value) for c in subset)
    # At least ``low`` per value: some class outside every maximal
    # deficient subset must take the value.
    if low >= 1:
        for size in range(0, len(distinct) + 1):
            for subset in itertools.combinations(distinct, size):
                total = sum(mult[c] for c in subset)
                if total > low - 1:
                    continue
                rest = [c for c in distinct if c not in subset]
                if all(total + mult[c] > low - 1 for c in rest):
                    for value in range(1, m + 1):
                        yield tuple(var(c, value) for c in rest)


def reference_encode_decision_map(
    task: GSBTask, complex_: ISProtocolComplex
) -> DecisionMapEncoding:
    """CNF for "an r-round comparison-based decision map solves ``task``"."""
    if task.n != complex_.n:
        raise ValueError(
            f"task is on {task.n} processes but the complex has {complex_.n}"
        )
    classes = complex_.canonical_classes()
    order = decision_class_order(complex_)
    position = {label: index for index, label in enumerate(order)}
    m = task.m
    low, high = task.low, task.high

    def var(class_index: int, value: int) -> int:
        return class_index * m + value

    clauses: set[tuple[int, ...]] = set()
    for index in range(len(order)):
        clauses.add(tuple(var(index, value) for value in range(1, m + 1)))
        for v1, v2 in itertools.combinations(range(1, m + 1), 2):
            clauses.add((-var(index, v1), -var(index, v2)))
    # Facets repeat class multisets heavily (the complex is built from
    # order-isomorphic views); dedupe before clause generation.
    seen: set[tuple] = set()
    for facet in complex_.facets():
        mult: dict[int, int] = {}
        for vertex in facet:
            index = position[classes[vertex]]
            mult[index] = mult.get(index, 0) + 1
        fingerprint = tuple(sorted(mult.items()))
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        clauses.update(_facet_value_clauses(mult, low, high, m, var))
    if task.is_symmetric:
        # Value-precede chain over the class order: w appears only after
        # w-1 did.  Sound because symmetric-task legality is invariant
        # under value permutation (it only reads per-value counts).
        for w in range(2, m + 1):
            for index in range(len(order)):
                clauses.add(
                    (-var(index, w),)
                    + tuple(var(earlier, w - 1) for earlier in range(index))
                )
    return DecisionMapEncoding(
        n=task.n,
        m=m,
        rounds=complex_.rounds,
        num_vars=len(order) * m,
        clauses=tuple(sorted(clauses, key=lambda c: (len(c), c))),
        class_order=tuple(order),
    )
