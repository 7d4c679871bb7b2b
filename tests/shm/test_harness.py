"""Unit tests for the task-validation harness."""

import pytest

from repro.core import renaming, weak_symmetry_breaking
from repro.shm import (
    GSBOracle,
    Invoke,
    ListScheduler,
    Nop,
    RunResult,
    available_specs,
    canonical_participant_classes,
    check_algorithm,
    check_algorithm_exhaustive,
    check_comparison_based,
    check_index_independence,
    get_spec,
    run_algorithm,
    validate_run,
)
from repro.shm.engine import decision_summary
from repro.algorithms import decision_only, identity_renaming_algorithm

from .legacy_oracle import all_subsets, legacy_vectors

REGISTRY_CASES = [
    (name, n)
    for name in sorted(available_specs())
    for n in (2, 3)
    if n >= get_spec(name).min_n
]


class TestValidateRun:
    def _run(self, algorithm, n=3, schedule=None, arrays=None, objects=None):
        scheduler = ListScheduler(schedule) if schedule else None
        from repro.shm import RoundRobinScheduler

        return run_algorithm(
            algorithm,
            list(range(1, n + 1)),
            scheduler or RoundRobinScheduler(),
            arrays=arrays or {},
            objects=objects or {},
        )

    def test_valid_run_passes(self):
        task = renaming(3, 5)
        result = self._run(identity_renaming_algorithm())
        assert validate_run(task, result) == []

    def test_illegal_output_flagged(self):
        task = renaming(3, 5)
        result = self._run(decision_only(lambda ctx: 1))  # everyone decides 1
        violations = validate_run(task, result)
        assert violations
        assert violations[0].kind == "validity"

    def test_violation_found_at_earliest_decision(self):
        # Second decision already makes the partial vector un-extendable.
        task = weak_symmetry_breaking(3)  # not all same
        result = self._run(decision_only(lambda ctx: 1))
        violations = validate_run(task, result)
        # 1,1 is still extendable (third could decide 2); 1,1,1 is not.
        assert any("cannot extend" in str(v) or "illegal" in str(v) for v in violations)

    def test_stranded_processes_flagged(self):
        def sometimes_stuck(ctx):
            yield Nop()
            if ctx.identity == 2:
                while True:
                    yield Nop()
            return ctx.identity

        result = self._run(
            sometimes_stuck, n=2, schedule=[0, 0, 1, 1, 1, 1, 1]
        )
        # pid 1 (identity 2) never decides and is not crashed.
        task = renaming(2, 3)
        violations = validate_run(task, result)
        assert any(violation.kind == "termination" for violation in violations)

    def test_crashed_processes_not_stranded(self):
        result = RunResult(
            n=2,
            identities=(1, 2),
            outputs=[1, None],
            decided_at=[0, None],
            crashed={1},
            trace=[],
            steps=0,
        )
        task = renaming(2, 3)
        assert validate_run(task, result) == []


class TestCheckAlgorithm:
    def test_identity_renaming_battery(self):
        report = check_algorithm(
            renaming(4, 7), identity_renaming_algorithm(), 4, runs=40, seed=0
        )
        assert report.ok
        assert report.runs == 40

    def test_bad_algorithm_caught(self):
        report = check_algorithm(
            renaming(3, 5), decision_only(lambda ctx: 1), 3, runs=10, seed=0
        )
        assert not report.ok

    def test_exception_reported_not_raised(self):
        def broken(ctx):
            yield Invoke("MISSING", "acquire")
            return 1

        report = check_algorithm(renaming(3, 5), broken, 3, runs=5, seed=0)
        assert not report.ok
        assert all(v.kind == "exception" for v in report.violations)

    def test_oracle_system_factory(self):
        from repro.core import perfect_renaming

        def factory():
            return {}, {"PR": GSBOracle(perfect_renaming(3), seed=1)}

        def algo(ctx):
            name = yield Invoke("PR", GSBOracle.ACQUIRE)
            return name

        report = check_algorithm(
            perfect_renaming(3), algo, 3, system_factory=factory, runs=20, seed=1
        )
        assert report.ok

    def test_report_merge_and_str(self):
        first = check_algorithm(
            renaming(3, 5), identity_renaming_algorithm(), 3, runs=5, seed=0
        )
        second = check_algorithm(
            renaming(3, 5), identity_renaming_algorithm(), 3, runs=7, seed=1
        )
        first.merge(second)
        assert first.runs == 12
        assert "12 runs" in str(first)


class TestExhaustive:
    def test_identity_renaming_exhaustive(self):
        report = check_algorithm_exhaustive(
            renaming(3, 5), identity_renaming_algorithm(), 3
        )
        assert report.ok
        # 3 singleton runs + 3 pair subsets + full set, each 1 interleaving
        # for a 0-op algorithm (only the decision scheduling).
        assert report.runs == 7

    def test_bad_algorithm_caught_exhaustively(self):
        report = check_algorithm_exhaustive(
            weak_symmetry_breaking(2), decision_only(lambda ctx: 2), 2
        )
        assert not report.ok


class TestExhaustiveMatchesLegacy:
    """The harness's compiled exploration covers exactly the runs of the
    legacy re-execution explorer, subset by subset."""

    @pytest.mark.parametrize("name,n", REGISTRY_CASES)
    @pytest.mark.parametrize("canonical", [False, True])
    def test_registry_spec_against_legacy(self, name, n, canonical):
        spec = get_spec(name)
        report = check_algorithm_exhaustive(
            spec.task_factory(n),
            spec.algorithm_factory(n),
            n,
            system_factory=spec.system_factory(n),
            max_runs=None,
            canonical_subsets=canonical,
        )
        illegal = decision_summary(spec, n, legacy_vectors(name, n))[2]
        # A spec the legacy explorer refutes must fail the harness too
        # (which then stops early, so its run count is partial).
        assert report.ok == (illegal == 0), report
        if report.ok:
            subsets = (
                [subset for subset, _ in canonical_participant_classes(n, 1)]
                if canonical
                else all_subsets(n)
            )
            assert report.runs == sum(
                sum(legacy_vectors(name, n, subset).values())
                for subset in subsets
            )


class TestMetamorphic:
    def test_identity_renaming_is_index_independent(self):
        report = check_index_independence(identity_renaming_algorithm(), 3, runs=10)
        assert report.ok

    def test_identity_renaming_is_not_comparison_based(self):
        # Deciding one's own identity *uses the identity value*: replacing
        # identities by an order-isomorphic set changes outputs.
        report = check_comparison_based(identity_renaming_algorithm(), 3, runs=10)
        assert not report.ok

    def test_rank_decider_is_comparison_based_but_wrong(self):
        # A (broken) protocol that decides its identity's rank after one
        # snapshot is comparison-based even though it may not solve tasks.
        from repro.shm import Snapshot, Write

        def rank_after_snapshot(ctx):
            yield Write("A", ctx.identity)
            view = yield Snapshot("A")
            seen = sorted(cell for cell in view if cell is not None)
            return seen.index(ctx.identity) + 1

        def factory():
            return {"A": None}, {}

        report = check_comparison_based(
            rank_after_snapshot, 3, system_factory=factory, runs=10
        )
        assert report.ok

    def test_index_dependent_algorithm_caught(self):
        report = check_index_independence(decision_only(lambda ctx: ctx.pid + 1), 3, runs=10)
        assert not report.ok
