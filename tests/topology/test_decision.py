"""Tests for decision-map search on protocol complexes."""

import functools
import itertools

import pytest

from repro.core import (
    BoundVector,
    GSBTask,
    SymmetricGSBTask,
    election,
    perfect_renaming,
    renaming,
    weak_symmetry_breaking,
)
from repro.topology import (
    ISProtocolComplex,
    search_decision_map,
    verify_decision_map,
)

from .reference_search import reference_search_decision_map


class TestPositiveControls:
    def test_3_renaming_n2_one_round(self):
        # <2,3,0,1> has a one-round comparison-based protocol:
        # solo -> 3, lower-of-two -> 1, higher -> 2 (up to symmetry).
        result = search_decision_map(renaming(2, 3), ISProtocolComplex(2, 1))
        assert result.solvable
        assert not verify_decision_map(
            renaming(2, 3), ISProtocolComplex(2, 1), result.decision_map
        )

    def test_loosest_task_always_solvable(self):
        # <n, m, 0, n> admits everything: any constant map works.
        result = search_decision_map(
            SymmetricGSBTask(3, 2, 0, 3), ISProtocolComplex(3, 1)
        )
        assert result.solvable

    def test_found_maps_verify(self):
        for task in [renaming(2, 3), SymmetricGSBTask(3, 3, 0, 2)]:
            complex_ = ISProtocolComplex(task.n, 1)
            result = search_decision_map(task, complex_)
            if result.solvable:
                assert verify_decision_map(task, complex_, result.decision_map) == []


class TestRefutations:
    def test_wsb_prime_power_n(self):
        # n = 2 and n = 3 are prime powers: WSB has no r-round protocol.
        for n, rounds in [(2, 1), (2, 2), (2, 3), (3, 1)]:
            result = search_decision_map(
                weak_symmetry_breaking(n), ISProtocolComplex(n, rounds)
            )
            assert not result.solvable, (n, rounds)

    def test_perfect_renaming_never(self):
        for n, rounds in [(2, 1), (2, 2), (3, 1)]:
            result = search_decision_map(
                perfect_renaming(n), ISProtocolComplex(n, rounds)
            )
            assert not result.solvable

    def test_election_never(self):
        for n, rounds in [(2, 1), (2, 2), (3, 1), (3, 2)]:
            result = search_decision_map(
                election(n), ISProtocolComplex(n, rounds)
            )
            assert not result.solvable

    def test_2n_minus_1_renaming_needs_more_than_one_round_at_n3(self):
        # A finding of this reproduction: no one-round comparison-based
        # protocol solves 5-renaming for n=3 (six canonical classes need
        # pairwise-distinct names but only five exist).
        result = search_decision_map(renaming(3, 5), ISProtocolComplex(3, 1))
        assert not result.solvable


class TestSearchMechanics:
    def test_result_metadata(self):
        result = search_decision_map(
            weak_symmetry_breaking(3), ISProtocolComplex(3, 1)
        )
        assert result.classes == 6
        assert result.facets == 13
        assert result.rounds == 1
        assert result.assignments_tried > 0

    def test_budget_enforced(self):
        with pytest.raises(RuntimeError, match="exceeded"):
            search_decision_map(
                weak_symmetry_breaking(3),
                ISProtocolComplex(3, 2),
                max_assignments=50,
            )

    def test_n_mismatch_rejected(self):
        with pytest.raises(ValueError, match="processes"):
            search_decision_map(weak_symmetry_breaking(4), ISProtocolComplex(3, 1))

    def test_verify_flags_bad_map(self):
        complex_ = ISProtocolComplex(2, 1)
        classes = set(complex_.canonical_classes().values())
        constant_map = {label: 1 for label in classes}
        problems = verify_decision_map(renaming(2, 3), complex_, constant_map)
        assert problems

    def test_verify_flags_missing_classes(self):
        complex_ = ISProtocolComplex(2, 1)
        problems = verify_decision_map(renaming(2, 3), complex_, {})
        assert any("unmapped" in problem for problem in problems)


@functools.lru_cache(maxsize=None)
def shared_complex(n, rounds):
    return ISProtocolComplex(n, rounds)


def outcome(search, task, complex_, max_assignments):
    try:
        result = search(task, complex_, max_assignments=max_assignments)
    except RuntimeError as error:
        return ("exceeded", str(error))
    return (result.assignments_tried, result.decision_map, result.classes)


def differential_tasks(n, asymmetric_m=(2, 3)):
    """Symmetric tasks of every shape (infeasible ones included), election,
    and asymmetric bound vectors with ``m`` in ``asymmetric_m``."""
    tasks = [
        SymmetricGSBTask(n, m, low, high)
        for m in range(1, 4)
        for low in range(0, n + 1)
        for high in range(low, n + 1)
    ]
    if n >= 2:
        tasks.append(election(n))
    for m in asymmetric_m:
        for lower in itertools.product(range(0, 2), repeat=m):
            for upper in itertools.product(range(1, n + 1), repeat=m):
                if all(low <= high for low, high in zip(lower, upper)):
                    tasks.append(GSBTask(n, BoundVector(lower, upper)))
    return tasks


class TestCountersAgainstReference:
    """The counter-based search visits exactly the assignments of the
    predicate-based reference: same count, same map, same overruns."""

    @pytest.mark.parametrize(
        "n,rounds,budgets,asymmetric_m",
        [
            pytest.param(1, 1, (50, 20_000), (2, 3), id="n1-r1"),
            pytest.param(1, 2, (50, 20_000), (2, 3), id="n1-r2"),
            pytest.param(2, 1, (50, 20_000), (2, 3), id="n2-r1"),
            pytest.param(2, 2, (50, 20_000), (2, 3), id="n2-r2"),
            pytest.param(3, 1, (50, 20_000), (2, 3), id="n3-r1"),
            pytest.param(3, 2, (50, 2_000), (2,), id="n3-r2"),
            pytest.param(4, 1, (50, 2_000), (), id="n4-r1"),
        ],
    )
    def test_identical_search(self, n, rounds, budgets, asymmetric_m):
        complex_ = shared_complex(n, rounds)
        for task in differential_tasks(n, asymmetric_m):
            for budget in budgets:
                assert outcome(search_decision_map, task, complex_, budget) == (
                    outcome(reference_search_decision_map, task, complex_, budget)
                ), (task, budget)

    @pytest.mark.parametrize(
        "parameters", [(4, 2, 0, 4), (4, 3, 0, 3), (4, 2, 2, 2), (4, 3, 0, 2)]
    )
    def test_identical_search_two_rounds_n4(self, parameters):
        task = SymmetricGSBTask(*parameters)
        complex_ = shared_complex(4, 2)
        assert outcome(search_decision_map, task, complex_, 8_000) == (
            outcome(reference_search_decision_map, task, complex_, 8_000)
        )
