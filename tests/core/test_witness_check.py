"""Differential pinning: the tight witness check against the per-subset
oracle.

``decision_function_is_valid`` counts each participating set's decided
values against the bound tuples directly; the oracle
(``reference_witness.py``) runs every set through
``task.is_legal_output``.  They must agree on every Theorem 9 witness for
n <= 7 (the sizes ``universe check`` replays), on each witness with one
entry changed, on decision functions that are not witnesses, and on
asymmetric tasks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BoundVector,
    GSBTask,
    SymmetricGSBTask,
    communication_free_decision_function,
    decision_function_is_valid,
    feasible_bound_pairs,
    identity_space,
)

from .reference_witness import reference_decision_function_is_valid

MAX_REPLAYED_N = 7


def theorem9_witnesses():
    """``(task, delta)`` for every symmetric task with a Theorem 9 witness."""
    for n in range(1, MAX_REPLAYED_N + 1):
        for m in range(1, 2 * n + 1):
            for low, high in feasible_bound_pairs(n, m):
                task = SymmetricGSBTask(n, m, low, high)
                delta = communication_free_decision_function(task)
                if delta is not None:
                    yield task, delta


def agree(task, delta):
    fast = decision_function_is_valid(task, delta)
    assert fast == reference_decision_function_is_valid(task, delta), (
        task,
        delta,
    )
    return fast


def test_every_theorem9_witness_is_valid_on_both_paths():
    witnesses = list(theorem9_witnesses())
    assert len(witnesses) > 100
    for task, delta in witnesses:
        assert agree(task, delta)


def test_witnesses_with_one_entry_changed():
    """The first, middle and last identity each move to the next value in
    ``[1..m]``, which a witness with slack survives; the first also moves
    out of range, which no function survives."""
    verdicts = set()
    for task, delta in theorem9_witnesses():
        for identity in sorted({1, task.n, 2 * task.n - 1}):
            value = delta[identity] % task.m + 1
            verdicts.add(agree(task, {**delta, identity: value}))
        for value in (0, task.m + 1):
            assert not agree(task, {**delta, 1: value})
    assert verdicts == {True, False}


def test_round_robin_functions_on_every_symmetric_task():
    verdicts = set()
    for n in range(1, 6):
        for m in range(1, 2 * n + 1):
            delta = {identity: (identity - 1) % m + 1 for identity in identity_space(n)}
            for low, high in feasible_bound_pairs(n, m):
                verdicts.add(agree(SymmetricGSBTask(n, m, low, high), delta))
    assert verdicts == {True, False}


def test_domain_must_be_the_identity_space():
    task = SymmetricGSBTask(3, 2, 0, 3)
    delta = communication_free_decision_function(task)
    missing = {identity: value for identity, value in delta.items() if identity != 1}
    extra = {**delta, 2 * task.n: 1}
    for broken in (missing, extra, {}):
        assert not agree(task, broken)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_asymmetric_tasks(data):
    n = data.draw(st.integers(1, 5), label="n")
    m = data.draw(st.integers(1, 4), label="m")
    pairs = [
        tuple(sorted(data.draw(st.tuples(st.integers(0, n), st.integers(0, n)))))
        for _ in range(m)
    ]
    task = GSBTask(n, BoundVector.from_pairs(pairs))
    delta = {
        identity: data.draw(st.integers(1, m), label=f"delta[{identity}]")
        for identity in identity_space(n)
    }
    agree(task, delta)
    witness = communication_free_decision_function(task)
    if witness is not None:
        assert agree(task, witness)
