"""Tests for the one-shot immediate snapshot (Borowsky-Gafni levels)."""

from repro.shm import (
    BlockScheduler,
    ListScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    check_immediate_snapshot_views,
    immediate_snapshot,
    run_algorithm,
)
from repro.shm.compiled import compile_protocol
from repro.shm.explore import explore_all_participant_subsets


def is_algorithm(ctx):
    view = yield from immediate_snapshot(ctx, "IS", ctx.identity)
    return tuple(sorted(view.items()))


def views_of(result):
    return {
        pid: dict(output)
        for pid, output in enumerate(result.outputs)
        if output is not None
    }


class TestProperties:
    def test_round_robin(self):
        result = run_algorithm(
            is_algorithm, [5, 3, 1], RoundRobinScheduler(), arrays={"IS": None}
        )
        assert check_immediate_snapshot_views(views_of(result)) == []

    def test_random_schedules(self):
        for seed in range(30):
            result = run_algorithm(
                is_algorithm,
                [5, 3, 1, 7],
                RandomScheduler(seed),
                arrays={"IS": None},
            )
            problems = check_immediate_snapshot_views(views_of(result))
            assert problems == [], (seed, problems)

    def test_solo_run_sees_self_only(self):
        result = run_algorithm(
            is_algorithm,
            [5, 3],
            ListScheduler([0] * 30, then_finish=False),
            arrays={"IS": None},
        )
        assert dict(result.outputs[0]) == {0: 5}

    def test_block_execution_shared_view(self):
        # Both processes in one block: they must obtain the same full view.
        result = run_algorithm(
            is_algorithm, [5, 3], BlockScheduler([[0, 1]]), arrays={"IS": None}
        )
        assert result.outputs[0] == result.outputs[1]
        assert dict(result.outputs[0]) == {0: 5, 1: 3}

    def test_exhaustive_small(self):
        program = compile_protocol(is_algorithm, [5, 3], arrays={"IS": None})
        factory = program.machine

        total = 0
        for _participants, result in explore_all_participant_subsets(
            factory, max_runs=100_000
        ):
            problems = check_immediate_snapshot_views(views_of(result))
            assert problems == [], (result.schedule(), problems)
            total += 1
        assert total >= 10  # the space is genuinely explored

    def test_views_are_snapshots_of_participants(self):
        for seed in range(10):
            result = run_algorithm(
                is_algorithm, [5, 3, 1], RandomScheduler(seed), arrays={"IS": None}
            )
            for pid, output in enumerate(result.outputs):
                view = dict(output)
                # Values are the contributed identities.
                for member, value in view.items():
                    assert value == result.identities[member]


class TestChecker:
    def test_checker_flags_missing_self(self):
        problems = check_immediate_snapshot_views({0: {1: "b"}, 1: {1: "b"}})
        assert any("self-inclusion" in problem for problem in problems)

    def test_checker_flags_containment(self):
        problems = check_immediate_snapshot_views(
            {0: {0: "a", 2: "c"}, 1: {1: "b", 2: "c"}}
        )
        assert any("containment" in problem for problem in problems)

    def test_checker_flags_immediacy(self):
        # j in view(i) but view(j) not within view(i).
        problems = check_immediate_snapshot_views(
            {
                0: {0: "a", 1: "b"},
                1: {0: "a", 1: "b", 2: "c"},
                2: {0: "a", 1: "b", 2: "c"},
            }
        )
        assert any("immediacy" in problem for problem in problems)

    def test_checker_accepts_valid(self):
        assert (
            check_immediate_snapshot_views(
                {
                    0: {0: "a"},
                    1: {0: "a", 1: "b"},
                    2: {0: "a", 1: "b", 2: "c"},
                }
            )
            == []
        )
