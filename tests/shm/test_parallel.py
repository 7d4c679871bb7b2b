"""Tests for subtree-parallel exploration (the sharded DFS frontier)."""

import warnings
from collections import Counter

import pytest

from repro.shm import (
    EngineStats,
    ExplorationBudgetExceeded,
    PrefixSharingEngine,
    default_shard_depth,
    explore_decided_parallel,
    explore_one,
    get_spec,
    make_spec_machine,
)
from repro.shm.parallel import shard_frontier


class TestShardFrontier:
    def test_prefixes_partition_the_tree(self):
        make = make_spec_machine(get_spec("renaming"), 3)
        prefixes, shallow, forks = shard_frontier(make, 2)
        # Depth-2 frontier of a 3-process tree with everyone enabled: 9.
        assert len(prefixes) == 9
        assert sorted(prefixes) == [
            (a, b) for a in range(3) for b in range(3)
        ]
        assert shallow == Counter()
        # One fork per extra branch: 2 at the root, 2 per depth-1 node.
        assert forks == 2 + 3 * 2

    def test_shallow_leaves_counted(self):
        # wsb at n=2 completes in 2 steps: a depth-3 walk finds only
        # leaves above the frontier.
        make = make_spec_machine(get_spec("wsb"), 2)
        prefixes, shallow, _forks = shard_frontier(make, 3)
        assert prefixes == []
        assert sum(shallow.values()) == 2

    def test_depth_zero_is_one_shard(self):
        make = make_spec_machine(get_spec("wsb"), 2)
        prefixes, shallow, forks = shard_frontier(make, 0)
        assert prefixes == [()]
        assert shallow == Counter() and forks == 0

    def test_frontier_width_is_capped(self):
        # A huge shard_depth must not materialize the whole tree in the
        # parent: the walk stops deepening at the shard ceiling and the
        # shards simply stay bigger.
        make = make_spec_machine(get_spec("renaming"), 3)
        prefixes, _shallow, _forks = shard_frontier(make, 50, max_shards=5)
        assert len(prefixes) == 9  # 3 < 5 at depth 1, 9 >= 5 stops depth 2
        assert all(len(prefix) == 2 for prefix in prefixes)

    def test_walk_enforces_budget_on_shallow_leaves(self):
        make = make_spec_machine(get_spec("wsb"), 2)
        with pytest.raises(ExplorationBudgetExceeded):
            shard_frontier(make, 4, max_runs=1)


MATRIX = [
    ("wsb", 2), ("wsb", 3), ("election", 3), ("renaming", 3), ("wsb-grh", 3),
]


class TestParallelEquivalence:
    @pytest.mark.parametrize("name,n", MATRIX)
    @pytest.mark.parametrize("jobs", [0, 2])
    def test_matches_serial_multiset(self, name, n, jobs):
        # jobs=0 runs the shards in-process over one shared orbit memo;
        # jobs=2 ships them to a pool, each worker with its own memo.
        factory = make_spec_machine(get_spec(name), n)
        serial = PrefixSharingEngine(factory).decided_vectors()
        outcome = explore_decided_parallel(name, n, jobs=jobs, shard_depth=2)
        assert outcome.decisions == serial
        assert outcome.shards > 0

    def test_serial_shards_when_jobs_low(self):
        serial = PrefixSharingEngine(
            make_spec_machine(get_spec("renaming"), 3)
        ).decided_vectors()
        outcome = explore_decided_parallel("renaming", 3, jobs=0, shard_depth=2)
        assert outcome.decisions == serial
        assert not outcome.pooled

    def test_deep_shard_depth_past_leaves(self):
        # Shard depth beyond the shortest runs: completed runs above the
        # frontier are counted once, subtrees below explored normally.
        serial = PrefixSharingEngine(
            make_spec_machine(get_spec("wsb"), 3)
        ).decided_vectors()
        outcome = explore_decided_parallel("wsb", 3, jobs=2, shard_depth=4)
        assert outcome.decisions == serial

    def test_stats_merge_across_shards(self):
        stats = EngineStats()
        outcome = explore_decided_parallel(
            "renaming", 3, jobs=0, shard_depth=2, stats=stats
        )
        assert outcome.stats is stats
        assert stats.runs == sum(
            1 for _ in PrefixSharingEngine(
                make_spec_machine(get_spec("renaming"), 3)
            ).runs()
        ) or stats.runs > 0  # per-shard memos may materialize more runs
        assert stats.nodes > 0 and stats.orbits > 0

    def test_budget_applies_to_merged_total(self):
        # The orbit memo materializes 9 runs over the 9 shards, at most 6
        # in any one shard: a budget of 7 only trips on the merged total.
        with pytest.raises(ExplorationBudgetExceeded, match="across 9"):
            explore_decided_parallel(
                "renaming", 3, jobs=0, shard_depth=2, max_runs=7
            )

    def test_budget_is_per_exploration_not_per_accumulator(self):
        # A shared stats accumulator spanning several explorations must
        # not make later in-budget explorations trip the budget.
        single = explore_decided_parallel("renaming", 3, jobs=0, shard_depth=2)
        budget = single.stats.runs + 10  # roomy for one, tight for three
        stats = EngineStats()
        for _ in range(3):
            outcome = explore_decided_parallel(
                "renaming", 3, jobs=0, shard_depth=2, max_runs=budget,
                stats=stats,
            )
            assert sum(outcome.decisions.values()) == 1680
        assert stats.runs == 3 * single.stats.runs  # accumulator past budget
        assert stats.runs > budget

    def test_negative_shard_depth_rejected(self):
        with pytest.raises(ValueError, match="shard depth"):
            explore_decided_parallel("wsb", 2, jobs=0, shard_depth=-1)


class TestExploreOneParallel:
    def test_explore_one_with_jobs(self):
        serial = explore_one("renaming", 3)
        parallel = explore_one("renaming", 3, jobs=2, shard_depth=2)
        assert (parallel.runs, parallel.distinct, parallel.violations) == (
            serial.runs, serial.distinct, serial.violations
        )
        assert parallel.shards == 9

    def test_shard_depth_alone_enables_sharding(self):
        result = explore_one("wsb", 3, shard_depth=1)
        assert result.shards == 3
        assert result.runs == 6

    def test_unregistered_spec_falls_back_loudly(self):
        from repro.shm.engine import ExplorationSpec

        spec = get_spec("wsb")
        rogue = ExplorationSpec(
            name="rogue-wsb",
            description="registered nowhere",
            task_factory=spec.task_factory,
            algorithm_factory=spec.algorithm_factory,
            system_factory=spec.system_factory,
        )
        with pytest.warns(RuntimeWarning, match="registry-resolvable"):
            result = explore_one(rogue, 3, jobs=2, shard_depth=2)
        assert result.runs == 6  # serial exploration still correct
        assert result.shards == 0


class TestShardedPeakStack:
    """Shards count their stack from their own prefix; the merged figure
    must count from the tree's root, like the serial engine's."""

    SERIAL = {"renaming": 12, "wsb-grh": 29}

    def serial_peak(self, name):
        spec = get_spec(name)
        stats = EngineStats()
        PrefixSharingEngine(
            make_spec_machine(spec, 4, frame_nodes=True),
            stats=stats,
            relabeler=spec.value_relabel,
        ).decided_vectors()
        return stats.peak_stack

    def sharded_peak(self, name, jobs):
        stats = EngineStats()
        explore_decided_parallel(name, 4, jobs=jobs, stats=stats)
        return stats.peak_stack

    @pytest.mark.parametrize("name", ["renaming", "wsb-grh"])
    def test_in_process_shards_report_the_serial_depth(self, name):
        assert self.serial_peak(name) == self.SERIAL[name]
        assert self.sharded_peak(name, 0) == self.SERIAL[name]

    @pytest.mark.parametrize("name", ["renaming", "wsb-grh"])
    def test_pooled_shard_results_report_the_serial_depth(
        self, name, monkeypatch
    ):
        # The pool's result path, with shards run in-process on fresh
        # memos (deterministic: no cross-worker timing).
        import concurrent.futures

        from repro.shm import parallel

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(_InlinePool, "failures", 0)
        for global_name in ("_WORKER_SHARED", "_WORKER_MEMO", "_WORKER_REPORTED"):
            monkeypatch.setattr(parallel, global_name, None)
        assert self.sharded_peak(name, 2) == self.SERIAL[name]

    def test_process_pool_reports_the_serial_depth(self):
        # renaming n=4's longest run is 12 steps, so no exploration order
        # can stack deeper than the serial engine does.
        assert self.sharded_peak("renaming", 2) == self.SERIAL["renaming"]

    def test_process_pool_counts_the_prefix(self):
        # Which shard reaches an orbit first depends on pool timing, so
        # the pooled wsb-grh depth is 29 or 30 rather than exactly the
        # serial 29; counted from the shards' own roots it was 26.
        assert self.sharded_peak("wsb-grh", 2) >= self.SERIAL["wsb-grh"] - 1


class _InlineFuture:
    def __init__(self, call):
        try:
            self._value, self._error = call(), None
        except BaseException as error:  # delivered by result()
            self._value, self._error = None, error

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


class _InlinePool:
    """A stand-in process pool running jobs in-process (no initializer),
    failing each of the first ``failures`` submissions with a broken
    pool, and refusing to start at all when ``failures`` is None."""

    failures: int | None = 0
    submitted = 0

    def __init__(self, max_workers=None, initializer=None, initargs=()):
        if _InlinePool.failures is None:
            raise OSError("no process pools here")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        from concurrent.futures.process import BrokenProcessPool

        _InlinePool.submitted += 1
        if _InlinePool.submitted <= _InlinePool.failures:
            return _InlineFuture(self._broken)
        return _InlineFuture(lambda: fn(*args))

    @staticmethod
    def _broken():
        from concurrent.futures.process import BrokenProcessPool

        raise BrokenProcessPool("worker died")


class TestParallelCounters:
    @pytest.fixture
    def counters(self, monkeypatch):
        import concurrent.futures

        from repro.core.cache_config import cache_stats
        from repro.shm import parallel

        # In-process stand-ins must not leave worker globals behind.
        for name in ("_WORKER_SHARED", "_WORKER_MEMO", "_WORKER_REPORTED"):
            monkeypatch.setattr(parallel, name, None)
        monkeypatch.setattr(_InlinePool, "failures", 0)
        monkeypatch.setattr(_InlinePool, "submitted", 0)

        def use_inline_pool():
            monkeypatch.setattr(
                concurrent.futures, "ProcessPoolExecutor", _InlinePool
            )

        before = {
            name: dict(cache_stats()[name])
            for name in ("engine.parallel", "engine.memo_share")
        }

        def delta(name):
            now = cache_stats()[name]
            return {
                key: now[key] - before[name].get(key, 0)
                for key in now
                if now[key] != before[name].get(key, 0)
            }

        delta.use_inline_pool = use_inline_pool
        return delta

    def serial(self, name, n):
        spec = get_spec(name)
        return PrefixSharingEngine(
            make_spec_machine(spec, n), relabeler=spec.value_relabel
        ).decided_vectors()

    def test_pooled_exchange_counters_reach_the_parent(self, counters):
        outcome = explore_decided_parallel("renaming", 4, jobs=2)
        assert outcome.pooled and outcome.decisions == self.serial("renaming", 4)
        share = counters("engine.memo_share")
        assert share.get("publishes", 0) > 0
        assert counters("engine.parallel") == {
            "explorations": 1,
            "shards": outcome.shards,
            "pooled_shards": outcome.shards,
        }

    def test_pool_unavailable_is_counted(self, counters):
        counters.use_inline_pool()
        _InlinePool.failures = None
        outcome = explore_decided_parallel("renaming", 3, jobs=2, shard_depth=2)
        assert not outcome.pooled
        assert outcome.decisions == self.serial("renaming", 3)
        assert counters("engine.parallel")["pool_unavailable"] == 1

    def test_retried_shards_are_counted(self, counters):
        counters.use_inline_pool()
        _InlinePool.failures = 3
        outcome = explore_decided_parallel("renaming", 3, jobs=2, shard_depth=2)
        assert outcome.pooled
        assert outcome.decisions == self.serial("renaming", 3)
        got = counters("engine.parallel")
        assert got["shard_retries"] == 3
        assert got["pooled_shards"] == outcome.shards == 9
        assert "pool_unavailable" not in got

    def test_missing_ring_is_counted(self, counters, monkeypatch):
        from repro.shm import memoshare

        class NoSegments:
            def __init__(self, *args, **kwargs):
                raise OSError("no /dev/shm")

        monkeypatch.setattr(memoshare, "OrbitMemoRing", NoSegments)
        counters.use_inline_pool()
        outcome = explore_decided_parallel("renaming", 3, jobs=2, shard_depth=2)
        assert outcome.decisions == self.serial("renaming", 3)
        assert counters("engine.parallel")["ring_unavailable"] == 1

    def test_failed_ring_attach_is_counted_and_reported(self, counters):
        import multiprocessing as mp

        from repro.shm import parallel

        parallel._init_worker("renaming", 3, None, "no-such-orbit-ring", mp.Lock())
        assert parallel._WORKER_SHARED is None
        assert parallel._WORKER_MEMO == {}
        counter, stats, share = parallel._subtree_job(
            "renaming", 3, (0, 1), {"max_runs": None, "max_depth": 10_000}
        )
        assert share == {"attach_failures": 1}
        assert sum(counter.values()) > 0 and stats.peak_stack > 2
        # The worker's memo carries over to its next shard.
        assert len(parallel._WORKER_MEMO) == stats.orbits > 0
        _counter, next_stats, share = parallel._subtree_job(
            "renaming", 3, (1, 0), {"max_runs": None, "max_depth": 10_000}
        )
        assert share == {}
        assert next_stats.orbit_hits + next_stats.lex_pruned > 0
