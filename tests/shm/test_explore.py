"""Unit tests for exhaustive interleaving exploration."""

import pytest

from repro.shm import (
    ExplorationBudgetExceeded,
    Nop,
    Snapshot,
    Write,
    compile_protocol,
    count_interleavings,
    explore_all_participant_subsets,
    explore_interleavings,
)


def write_then_snapshot(ctx):
    yield Write("A", ctx.identity)
    view = yield Snapshot("A")
    return tuple(view)


def make_runtime_factory(n, algorithm=write_then_snapshot):
    program = compile_protocol(
        algorithm, list(range(1, n + 1)), arrays={"A": None}
    )

    def factory():
        return program.machine(record_trace=True)

    return factory


class TestExploreInterleavings:
    def test_counts_match_multinomial(self):
        # Two processes, two ops each: C(4,2) = 6 interleavings exactly.
        runs = list(explore_interleavings(make_runtime_factory(2)))
        schedules = {tuple(run.schedule()) for run in runs}
        assert len(runs) == len(schedules) == 6  # no duplicate schedules
        # Every run decided everything.
        assert all(all(v is not None for v in run.outputs) for run in runs)

    def test_exact_run_count_for_fixed_length(self):
        # Decisions are free local computation, so a k-op process takes
        # exactly k steps: interleavings = multinomial of the op counts.
        def two_nops(ctx):
            yield Nop()
            yield Nop()
            return 1

        runs = list(explore_interleavings(make_runtime_factory(2, two_nops)))
        assert len(runs) == count_interleavings([2, 2])

    def test_distinct_outcomes_cover_view_cases(self):
        outcomes = {
            tuple(run.outputs)
            for run in explore_interleavings(make_runtime_factory(2))
        }
        # p0 solo-first, p1 solo-first, and both-see-both must all occur.
        assert ((1, None), (1, 2)) in outcomes
        assert ((1, 2), (None, 2)) in outcomes
        assert ((1, 2), (1, 2)) in outcomes

    def test_participant_restriction(self):
        runs = list(
            explore_interleavings(make_runtime_factory(3), participants=[0, 2])
        )
        for run in runs:
            assert run.outputs[1] is None
            assert 1 not in set(run.schedule())

    def test_budget_enforced(self):
        with pytest.raises(ExplorationBudgetExceeded):
            list(explore_interleavings(make_runtime_factory(3), max_runs=5))

    def test_depth_guard(self):
        def spinner(ctx):
            while True:
                yield Nop()

        with pytest.raises(ExplorationBudgetExceeded, match="non-terminating"):
            list(
                explore_interleavings(
                    make_runtime_factory(1, spinner), max_depth=20
                )
            )


class TestParticipantSubsets:
    def test_all_subsets_visited(self):
        seen = set()
        for participants, _run in explore_all_participant_subsets(
            make_runtime_factory(2)
        ):
            seen.add(participants)
        assert seen == {(0,), (1,), (0, 1)}

    def test_min_participants(self):
        seen = {
            participants
            for participants, _ in explore_all_participant_subsets(
                make_runtime_factory(2), min_participants=2
            )
        }
        assert seen == {(0, 1)}

    def test_budget(self):
        with pytest.raises(ExplorationBudgetExceeded):
            list(
                explore_all_participant_subsets(
                    make_runtime_factory(3), max_runs=3
                )
            )


def test_count_interleavings():
    assert count_interleavings([1, 1]) == 2
    assert count_interleavings([2, 2]) == 6
    assert count_interleavings([3, 3, 3]) == 1680
