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
