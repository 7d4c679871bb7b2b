"""Tests for the sweep's CNF encoding and built-in CDCL solver.

The solver is the component a wrong answer from would be worst — an
unsound SAT answer is caught downstream by verification, but an unsound
UNSAT would silently weaken refutation evidence.  So beyond unit tests
the battery differentially checks the whole encode+solve path against
the independent backtracking search on every small task, and pins the
fast solver, encoder and backtracker step for step to their reference
implementations (``reference_cdcl.py``, ``reference_encoding.py`` and
``tests/topology/reference_search.py``).
"""

import functools
import hashlib
import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.family import family_entries
from repro.core.gsb import SymmetricGSBTask
from repro.sweep.sat import (
    SatBudgetExceeded,
    encode_decision_map,
    solve_cnf,
    solve_decision_map_sat,
)
from repro.topology.decision import search_decision_map, verify_decision_map
from repro.topology.is_complex import ISProtocolComplex

from ..topology.reference_search import reference_search_decision_map
from .reference_cdcl import reference_solve_cnf
from .reference_encoding import reference_encode_decision_map


@functools.lru_cache(maxsize=None)
def shared_complex(n, rounds):
    """One complex per (n, rounds) for the whole session (it is immutable)."""
    return ISProtocolComplex(n, rounds)


def solver_outcome(solve, num_vars, clauses, max_conflicts=None):
    """Everything a solve reports, or the budget overrun it raised."""
    try:
        result = solve(num_vars, clauses, max_conflicts=max_conflicts)
    except SatBudgetExceeded as error:
        return ("exceeded", str(error))
    return (result.satisfiable, result.conflicts, result.decisions, result.model)


def search_outcome(search, task, complex_, max_assignments):
    """Everything a search reports, or the budget overrun it raised."""
    try:
        result = search(task, complex_, max_assignments=max_assignments)
    except RuntimeError as error:
        return ("exceeded", str(error))
    return (result.assignments_tried, result.decision_map)


def pigeonhole(pigeons, holes):
    """``pigeons`` into ``holes``: UNSAT when there are more pigeons."""

    def var(p, h):
        return p * holes + h + 1

    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            clauses.append((-var(p1, h), -var(p2, h)))
    return pigeons * holes, clauses


class TestSolveCnf:
    def test_trivial_sat(self):
        result = solve_cnf(2, [(1,), (2,)])
        assert result.satisfiable
        assert result.model[1] and result.model[2]

    def test_trivial_unsat(self):
        result = solve_cnf(1, [(1,), (-1,)])
        assert not result.satisfiable

    def test_empty_formula_is_sat(self):
        assert solve_cnf(3, []).satisfiable

    def test_empty_clause_is_unsat(self):
        assert not solve_cnf(2, [(1,), ()]).satisfiable

    def test_pigeonhole_3_into_2_unsat(self):
        # var(p, h) for pigeons 0..2, holes 0..1
        def var(p, h):
            return p * 2 + h + 1

        clauses = [tuple(var(p, h) for h in range(2)) for p in range(3)]
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    clauses.append((-var(p1, h), -var(p2, h)))
        result = solve_cnf(6, clauses)
        assert not result.satisfiable
        assert result.conflicts > 0

    def test_model_satisfies_every_clause(self):
        clauses = [(1, 2), (-1, 3), (-2, -3), (2, 3)]
        result = solve_cnf(3, clauses)
        assert result.satisfiable
        for clause in clauses:
            assert any(
                result.model[abs(lit)] == (lit > 0) for lit in clause
            )

    def test_conflict_budget_raises(self):
        # A hard-enough pigeonhole to exceed a one-conflict budget.
        num_vars, clauses = pigeonhole(5, 4)
        with pytest.raises(SatBudgetExceeded):
            solve_cnf(num_vars, clauses, max_conflicts=1)

    @pytest.mark.parametrize(
        "clauses",
        [
            [(3, 4), (-3, -4)],  # both variables past num_vars
            [(1, 0)],  # literal 0
            [(1,), (2, -5)],  # a negative literal past num_vars
        ],
    )
    def test_rejects_literals_outside_the_variables(self, clauses):
        # Regression: such literals used to be accepted, and
        # solve_cnf(2, [(3, 4), (-3, -4)]) reported SAT with the model
        # {1: False, 2: False}, which satisfies neither clause.
        bad = next(c for c in clauses if 0 in c or max(map(abs, c)) > 2)
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            solve_cnf(2, clauses)

    def test_validates_before_deciding(self):
        # An out-of-range literal is an error even after an empty clause.
        with pytest.raises(ValueError):
            solve_cnf(2, [(), (7,)])


class TestEncoding:
    def test_exactly_one_value_per_class(self):
        task = SymmetricGSBTask(3, 2, 0, 3)  # trivially solvable
        complex_ = ISProtocolComplex(3, 1)
        encoding = encode_decision_map(task, complex_)
        decision_map, result = solve_decision_map_sat(task, complex_)
        assert result.satisfiable
        assert set(decision_map) == set(encoding.class_order)
        assert all(1 <= v <= task.m for v in decision_map.values())

    def test_found_map_verifies(self):
        task = SymmetricGSBTask(3, 2, 0, 3)  # trivially solvable
        complex_ = ISProtocolComplex(3, 1)
        decision_map, _ = solve_decision_map_sat(task, complex_)
        assert decision_map is not None
        assert verify_decision_map(task, complex_, decision_map) == []

    def test_known_refutation_is_unsat(self):
        # (4,3,0,2) has no 1-round map (the store's last OPEN cell at
        # n=4; its refutation at r=1 is well-established).
        task = SymmetricGSBTask(4, 3, 0, 2)
        complex_ = ISProtocolComplex(4, 1)
        decision_map, result = solve_decision_map_sat(task, complex_)
        assert decision_map is None
        assert not result.satisfiable


class TestDifferentialAgainstBacktracker:
    """encode+solve must agree with search_decision_map everywhere, and
    both must match their reference implementations step for step."""

    CASES = [
        (n, m, low, high, rounds)
        for n in (2, 3)
        for m in (2, 3)
        if m <= n
        for low in range(0, 2)
        for high in range(max(low, 1), n + 1)
        for rounds in (1, 2)
    ]

    @pytest.mark.parametrize("n,m,low,high,rounds", CASES)
    def test_agreement(self, n, m, low, high, rounds):
        task = SymmetricGSBTask(n, m, low, high)
        complex_ = shared_complex(n, rounds)
        encoding = encode_decision_map(task, complex_)
        outcome = solver_outcome(solve_cnf, encoding.num_vars, encoding.clauses)
        assert outcome == solver_outcome(
            reference_solve_cnf, encoding.num_vars, encoding.clauses
        )
        searched = search_outcome(search_decision_map, task, complex_, 200_000)
        assert searched == search_outcome(
            reference_search_decision_map, task, complex_, 200_000
        )
        satisfiable, _, _, model = outcome
        if satisfiable:
            assert verify_decision_map(task, complex_, encoding.decode(model)) == []
        if searched[0] == "exceeded":
            pytest.skip("backtracker budget exhausted; nothing to compare")
        assert satisfiable == (searched[1] is not None)


def cnfs(min_width, max_width, max_vars=30):
    """Random CNFs over at most ``max_vars`` variables, with ``n`` to
    ``5n`` clauses of ``min_width`` to ``max_width`` literals."""
    return st.integers(1, max_vars).flatmap(
        lambda num_vars: st.tuples(
            st.just(num_vars),
            st.lists(
                st.lists(
                    st.integers(1, num_vars).flatmap(
                        lambda var: st.sampled_from((var, -var))
                    ),
                    min_size=min_width,
                    max_size=max_width,
                ).map(tuple),
                min_size=num_vars,
                max_size=5 * num_vars,
            ),
        )
    )


#: Conflict budgets from "none at all" to "more than any of these needs".
BUDGETS = st.sampled_from([None, 0, 1, 2, 5, 20, 1000])


class TestSolverAgainstReference:
    """The heap-branching solver replays the linear-scan solver exactly."""

    # 2- and 3-clauses give SAT with and without conflicts, UNSAT after
    # search and budget overruns; widths 0..5 add units, empty clauses
    # and repeated literals.
    @pytest.mark.parametrize("widths", [(2, 3), (0, 5)])
    @given(data=st.data())
    def test_random_cnfs(self, widths, data):
        num_vars, clauses = data.draw(cnfs(*widths))
        max_conflicts = data.draw(BUDGETS)
        assert solver_outcome(
            solve_cnf, num_vars, clauses, max_conflicts
        ) == solver_outcome(reference_solve_cnf, num_vars, clauses, max_conflicts)

    @pytest.mark.parametrize(
        "pigeons,holes,max_conflicts",
        [(6, 5, None), (7, 6, None), (7, 6, 300), (6, 6, None)],
    )
    def test_pigeonhole(self, pigeons, holes, max_conflicts):
        # (7, 6) runs ~800 conflicts: restarts and several activity
        # halvings (every 256 conflicts), each of which rebuilds the heap.
        num_vars, clauses = pigeonhole(pigeons, holes)
        outcome = solver_outcome(solve_cnf, num_vars, clauses, max_conflicts)
        assert outcome == solver_outcome(
            reference_solve_cnf, num_vars, clauses, max_conflicts
        )
        if pigeons == 7 and max_conflicts is None:
            assert outcome[1] > 3 * 256


class TestEncodingAgainstReference:
    """The encoder emits the reference clause tuple on every small task."""

    CASES = [
        pytest.param(
            entry.task.parameters,
            rounds,
            id="-".join(map(str, entry.task.parameters)) + f"-r{rounds}",
        )
        for n in range(1, 5)
        for m in range(1, 4)
        for entry in family_entries(n, m)
        for rounds in (1, 2)
    ]

    @pytest.mark.parametrize("parameters,rounds", CASES)
    def test_identical_cnf(self, parameters, rounds):
        task = SymmetricGSBTask(*parameters)
        complex_ = shared_complex(task.n, rounds)
        assert encode_decision_map(task, complex_) == (
            reference_encode_decision_map(task, complex_)
        )


class TestPinnedRung4302:
    """The rung that closes ``<4,3,0,2>``, pinned by constants.

    The reference solver takes ~6 s on this CNF, so its counters are
    recorded here instead of recomputed: any change to the encoding or
    to the search shows up as a different count or digest (and, in the
    close-open sweep, as a different certificate).
    """

    def test_two_round_rung(self):
        task = SymmetricGSBTask(4, 3, 0, 2)
        complex_ = shared_complex(4, 2)
        encoding = encode_decision_map(task, complex_)
        assert encoding.num_vars == 2595
        assert len(encoding.clauses) == 38433
        assert hashlib.sha256(repr(encoding.clauses).encode()).hexdigest() == (
            "e338d20b43f892efe66e6664abafa5103673c25146a67bc95593cfdba66948bd"
        )
        result = solve_cnf(
            encoding.num_vars, encoding.clauses, max_conflicts=200_000
        )
        assert result.satisfiable
        assert (result.conflicts, result.decisions) == (1595, 24525)
        true_vars = sorted(v for v, truth in result.model.items() if truth)
        assert hashlib.sha256(repr(true_vars).encode()).hexdigest() == (
            "eb80fcc18255443791ea4b0a4b02559e75f0e74315638a5eb5bfaf15a34a91b4"
        )
        decision_map = encoding.decode(result.model)
        assert verify_decision_map(task, complex_, decision_map) == []
