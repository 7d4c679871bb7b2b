"""Tests for the prefix-sharing exploration engine.

The load-bearing property is *equivalence*: for every named workload the
engine must produce exactly the multiset of decided output vectors the
legacy re-execution explorer produces, when materializing every run even
in the same order.  On top of that: budget semantics, memoization actually
pruning, symmetry canonicalization of participant subsets, and the batch
API.
"""

import pytest

from repro.shm import (
    ExplorationBudgetExceeded,
    Nop,
    PrefixSharingEngine,
    RoundRobinScheduler,
    Runtime,
    Snapshot,
    Write,
    available_specs,
    canonical_participant_classes,
    compile_protocol,
    count_interleavings,
    explore_decided_subsets,
    explore_interleavings,
    explore_many,
    explore_one,
    get_spec,
    legacy_explore_interleavings,
    make_spec_machine,
    order_isomorphism_class,
)
from repro.shm.engine import decision_summary

from .legacy_oracle import legacy_runs, legacy_vectors

NAMED_SPECS = ("wsb", "election", "renaming", "wsb-grh")


def write_then_snapshot(ctx):
    yield Write("A", ctx.identity)
    view = yield Snapshot("A")
    return tuple(view)


def make_runtime_factory(n, algorithm=write_then_snapshot):
    """Generator-runtime factory: what the legacy explorer runs."""

    def factory():
        return Runtime(
            algorithm,
            list(range(1, n + 1)),
            RoundRobinScheduler(),
            arrays={"A": None},
        )

    return factory


def make_machine_factory(n, algorithm=write_then_snapshot):
    """Compiled-core factory for the same system: what the engine runs."""
    program = compile_protocol(
        algorithm, list(range(1, n + 1)), arrays={"A": None}
    )

    def factory():
        return program.machine(record_trace=True)

    return factory


# Every registry spec at n <= 3, wsb-grh n=3 included: the legacy
# multisets are computed once per session (tests/shm/legacy_oracle.py).
EQUIVALENCE_CASES = [(name, n) for name in NAMED_SPECS for n in (2, 3)]


class TestEquivalenceWithLegacy:
    @pytest.mark.parametrize("name,n", EQUIVALENCE_CASES)
    def test_exact_mode_matches_legacy_order(self, name, n):
        factory = make_spec_machine(get_spec(name), n)
        engine = tuple(
            tuple(result.outputs) for result in explore_interleavings(factory)
        )
        assert engine == legacy_runs(name, n)  # same runs, same order

    @pytest.mark.parametrize("name,n", EQUIVALENCE_CASES)
    def test_memoized_counts_match_legacy_multiset(self, name, n):
        engine = PrefixSharingEngine(make_spec_machine(get_spec(name), n))
        assert engine.decided_vectors() == legacy_vectors(name, n)

    @pytest.mark.parametrize("name,n", EQUIVALENCE_CASES)
    def test_explore_one_matches_legacy_summary(self, name, n):
        result = explore_one(name, n)
        assert (result.runs, result.distinct, result.violations) == (
            decision_summary(get_spec(name), n, legacy_vectors(name, n))
        )

    def test_memoization_preserves_counts(self):
        # Two processes, two commuting no-ops each: states merge heavily,
        # but the multiset must still be the full multinomial count.
        def two_nops(ctx):
            yield Nop()
            yield Nop()
            return 1

        engine = PrefixSharingEngine(make_machine_factory(2, two_nops))
        decisions = engine.decided_vectors()
        assert sum(decisions.values()) == count_interleavings([2, 2])
        assert engine.stats.orbit_hits > 0
        assert engine.stats.runs < count_interleavings([2, 2])

    def test_schedules_and_traces_survive_forking(self):
        legacy = {
            tuple(result.schedule())
            for result in legacy_explore_interleavings(make_runtime_factory(2))
        }
        engine = {
            tuple(result.schedule())
            for result in explore_interleavings(make_machine_factory(2))
        }
        assert engine == legacy
        assert len(legacy) == count_interleavings([2, 2])

    def test_generator_runtime_is_rejected(self):
        # The engine explores compiled machines only; the generator
        # runtime is the legacy explorer's reference semantics.
        with pytest.raises(TypeError, match="legacy_explore_interleavings"):
            PrefixSharingEngine(make_runtime_factory(2)).decided_vectors()
        with pytest.raises(TypeError, match="not a compiled-core machine"):
            list(explore_interleavings(make_runtime_factory(2)))


class TestBudgets:
    def test_max_runs_enforced(self):
        with pytest.raises(ExplorationBudgetExceeded):
            list(explore_interleavings(make_machine_factory(3), max_runs=5))

    def test_max_runs_yields_exactly_budget_before_raising(self):
        produced = []
        with pytest.raises(ExplorationBudgetExceeded):
            for result in explore_interleavings(
                make_machine_factory(2), max_runs=3
            ):
                produced.append(result)
        assert len(produced) == 3  # same semantics as the legacy explorer

    def test_depth_guard(self):
        def spinner(ctx):
            while True:
                yield Nop()

        with pytest.raises(ExplorationBudgetExceeded, match="non-terminating"):
            list(
                explore_interleavings(
                    make_machine_factory(1, spinner), max_depth=20
                )
            )

    def test_decided_vectors_budgets(self):
        # The budget bounds materialized leaves: exactly what one
        # unbudgeted exploration visits fits, one fewer does not.
        visited = PrefixSharingEngine(make_machine_factory(3))
        visited.decided_vectors()
        leaves = visited.stats.runs
        assert leaves > 1
        PrefixSharingEngine(
            make_machine_factory(3), max_runs=leaves
        ).decided_vectors()
        engine = PrefixSharingEngine(
            make_machine_factory(3), max_runs=leaves - 1
        )
        with pytest.raises(ExplorationBudgetExceeded):
            engine.decided_vectors()

    def test_engine_fits_budget_legacy_cannot(self):
        # The acceptance claim in miniature: with the same run budget the
        # engine's memoized mode completes a workload whose interleaving
        # count blows past the budget when every run must be materialized.
        def three_nops(ctx):
            for _ in range(3):
                yield Nop()
            return 1

        total = count_interleavings([3, 3, 3])  # 1680
        budget = 500
        with pytest.raises(ExplorationBudgetExceeded):
            list(
                legacy_explore_interleavings(
                    make_runtime_factory(3, three_nops), max_runs=budget
                )
            )
        engine = PrefixSharingEngine(
            make_machine_factory(3, three_nops), max_runs=budget
        )
        decisions = engine.decided_vectors()
        assert sum(decisions.values()) == total  # completed under budget


class TestSymmetryCanonicalization:
    def test_order_isomorphism_class(self):
        assert order_isomorphism_class((3, 9, 5)) == (0, 2, 1)
        assert order_isomorphism_class((1, 4, 2)) == (0, 2, 1)
        assert order_isomorphism_class((2,)) == (0,)

    def test_canonical_classes_cover_all_subsets(self):
        classes = canonical_participant_classes(4)
        assert [subset for subset, _ in classes] == [
            (0,),
            (0, 1),
            (0, 1, 2),
            (0, 1, 2, 3),
        ]
        assert sum(weight for _, weight in classes) == 2**4 - 1

    @pytest.mark.parametrize("name", NAMED_SPECS)
    def test_subset_profiles_match_full_enumeration(self, name):
        factory = make_spec_machine(get_spec(name), 3, frame_nodes=True)
        full = explore_decided_subsets(factory, assume_symmetric=False)
        pruned = explore_decided_subsets(factory, assume_symmetric=True)
        assert pruned.value_multisets() == full.value_multisets()
        assert pruned.total_runs == full.total_runs
        assert pruned.stats.subsets_pruned == (2**3 - 1) - 3

    def test_canonical_subsets_rejects_unsorted_identities(self):
        from repro.core.named import weak_symmetry_breaking
        from repro.shm import check_algorithm_exhaustive

        spec = get_spec("wsb")
        with pytest.raises(ValueError, match="ascending identity"):
            check_algorithm_exhaustive(
                weak_symmetry_breaking(3),
                spec.algorithm_factory(3),
                3,
                system_factory=spec.system_factory(3),
                identities=(3, 1, 2),
                canonical_subsets=True,
            )

    def test_exhaustive_check_canonical_subsets_agrees(self):
        from repro.algorithms import (
            figure2_renaming,
            figure2_system_factory,
            figure2_task,
        )
        from repro.shm import check_algorithm_exhaustive

        full = check_algorithm_exhaustive(
            figure2_task(3),
            figure2_renaming(),
            3,
            system_factory=figure2_system_factory(3, seed=0),
        )
        fast = check_algorithm_exhaustive(
            figure2_task(3),
            figure2_renaming(),
            3,
            system_factory=figure2_system_factory(3, seed=0),
            canonical_subsets=True,
        )
        assert full.ok and fast.ok
        assert fast.runs < full.runs


class TestBatchAPI:
    def test_registry(self):
        assert set(NAMED_SPECS) <= set(available_specs())
        with pytest.raises(KeyError, match="unknown exploration task"):
            get_spec("nope")

    def test_explore_one_validates(self):
        good = explore_one("renaming", 3)
        assert good.violations == 0
        assert good.runs == 1680
        refuted = explore_one("election", 3)
        assert refuted.violations > 0  # Theorem 11: candidate is refuted

    def test_explore_many_serial(self):
        results = explore_many(["wsb", "renaming"], [2, 3])
        assert [(r.name, r.n) for r in results] == [
            ("wsb", 2),
            ("wsb", 3),
            ("renaming", 2),
            ("renaming", 3),
        ]
        assert all(result.violations == 0 for result in results)

    def test_explore_many_skips_too_small_n(self):
        results = explore_many(["wsb"], [1, 2])
        assert [(r.name, r.n) for r in results] == [("wsb", 2)]

    def test_explore_many_process_executor(self):
        serial = explore_many(["wsb"], [2, 3])
        parallel = explore_many(["wsb"], [2, 3], executor="process", max_workers=2)
        assert [(r.name, r.n, r.runs, r.distinct) for r in serial] == [
            (r.name, r.n, r.runs, r.distinct) for r in parallel
        ]


class TestLoudPoolFallback:
    """explore_many's process-pool path must not swallow KeyError silently."""

    def test_genuinely_unregistered_name_raises(self):
        with pytest.raises(KeyError, match="unknown exploration task"):
            explore_many(["definitely-not-registered"], [2], executor="process")

    def test_worker_keyerror_warns_then_degrades(self, monkeypatch):
        import warnings as _warnings

        import repro.shm.engine as engine_module

        def exploding_job(name, n, options):
            raise KeyError(f"unknown exploration task {name!r} (worker side)")

        monkeypatch.setattr(engine_module, "_explore_job", exploding_job)

        class FakePool:
            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                from concurrent.futures import Future

                future = Future()
                try:
                    future.set_result(fn(*args))
                except BaseException as error:  # noqa: BLE001
                    future.set_exception(error)
                return future

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", FakePool
        )
        with pytest.warns(RuntimeWarning, match="could not resolve a spec"):
            results = explore_many(["wsb"], [2], executor="process")
        assert [(r.name, r.n, r.runs) for r in results] == [("wsb", 2, 2)]
