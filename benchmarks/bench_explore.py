"""Experiment E-EXPLORE: the compiled protocol core's exploration path.

These are the timed smoke benchmarks CI compares against the committed
``BENCH_explore.json`` baseline (``benchmarks/compare_baselines.py``) —
the perf trajectory of the repository's hottest path.  Every bench asserts
the expected multiset shape before timing, so the suite doubles as an
acceptance run:

* the full registry battery at n <= 3 on the compiled core;
* the wsb-grh n=3 exploration (register-contention-heavy, the deepest
  n=3 workload);
* subtree-parallel sharding equivalence (serial shards: pool spin-up is
  not what this suite times);
* the tier-4 decision-map replay protocol at n=3 on the compiled core;
* the value-symmetry orbit quotient at n=4 (the optimisation that opens
  n=5), plus an opt-in n=5 smoke (``EXPLORE_N5_SMOKE=1``) mirroring the
  CI acceptance run;
* the relabelled ``renaming`` spec at n=6, its search pinned counter for
  counter.
"""

import os

from collections import Counter

import pytest

from repro.shm import (
    PrefixSharingEngine,
    explore_decided_parallel,
    explore_many,
    explore_one,
    get_spec,
    make_spec_machine,
)

#: (runs, distinct) the registry battery must reproduce at each size.
EXPECTED = {
    ("wsb", 2): (2, 2),
    ("wsb", 3): (6, 3),
    ("election", 2): (6, 2),
    ("election", 3): (90, 4),
    ("renaming", 2): (20, 3),
    ("renaming", 3): (1680, 9),
    ("wsb-grh", 2): (20, 2),
    ("wsb-grh", 3): (39330, 9),
}


def bench_explore_battery_compiled(benchmark):
    """The whole registry at n <= 3 on the compiled core."""

    def battery():
        return explore_many(
            ["wsb", "election", "renaming", "wsb-grh"], [2, 3]
        )

    results = benchmark(battery)
    for result in results:
        assert (result.runs, result.distinct) == EXPECTED[(result.name, result.n)]
        if result.name != "election":
            assert result.violations == 0


def bench_explore_wsb_grh_n3_compiled(benchmark):
    """The deepest n=3 workload, alone (the baseline's anchor number)."""
    result = benchmark(explore_one, "wsb-grh", 3)
    assert (result.runs, result.distinct) == (39330, 9)
    assert result.violations == 0


def bench_explore_subtree_shards(benchmark):
    """Sharded exploration, serial shards (pure sharding overhead)."""
    serial = PrefixSharingEngine(
        make_spec_machine(get_spec("renaming"), 3)
    ).decided_vectors()

    def sharded() -> Counter:
        return explore_decided_parallel(
            "renaming", 3, jobs=0, shard_depth=2
        ).decisions

    assert benchmark(sharded) == serial


def bench_explore_wsb_grh_n4_quotient(benchmark):
    """wsb-grh at n=4 under the orbit quotient.

    The committed pre-quotient baseline for this workload was ~8.4 s on
    the reference machine; the quotient target is >= 3x faster (it
    measures ~15x).  Logical run/distinct counts are pinned so the
    speed-up can never come from exploring less.
    """
    result = benchmark.pedantic(
        explore_one, args=("wsb-grh", 4), rounds=1, iterations=1
    )
    assert (result.runs, result.distinct) == (27749755392, 84)
    assert result.violations == 0
    assert result.stats.orbits > 0


def bench_explore_renaming_n6_relabelled(benchmark):
    """Figure 2's renaming at n=6, the registry's one relabelled spec.

    Every branch is probed before it is forked, with the canonical key
    computed from the probed parts.  The orbits, hits and nodes are those
    of the fork-first search (115,304 forks, 0 probe hits); the fork and
    probe-hit counts are the probe-first search's.  The counters ride in
    ``extra_info``.
    """
    result = benchmark.pedantic(
        explore_one, args=("renaming", 6), rounds=1, iterations=1
    )
    assert (result.runs, result.distinct, result.violations) == (
        137225088000, 1080, 0
    )
    stats = result.stats.to_json()
    counters = {
        key: stats[key]
        for key in ("orbits", "orbit_hits", "nodes", "forks", "lex_pruned")
    }
    benchmark.extra_info.update(counters)
    assert counters == {
        "orbits": 34564,
        "orbit_hits": 115215,
        "nodes": 34564,
        "forks": 12255,
        "lex_pruned": 112560,
    }


@pytest.mark.skipif(
    not os.environ.get("EXPLORE_N5_SMOKE"),
    reason="n=5 smoke is opt-in (EXPLORE_N5_SMOKE=1); CI runs it "
    "under a 120 s deadline in a dedicated step",
)
def bench_explore_quotient_n5_smoke(benchmark):
    """wsb-grh and renaming at n=5 — the sizes the quotient opens up."""

    def n5_pair():
        wsb_grh = explore_one("wsb-grh", 5)
        renaming = explore_one("renaming", 5)
        return wsb_grh, renaming

    wsb_grh, renaming = benchmark.pedantic(n5_pair, rounds=1, iterations=1)
    assert (wsb_grh.runs, wsb_grh.distinct) == (8198838608410306803640, 1105)
    assert (renaming.runs, renaming.distinct) == (168168000, 180)
    assert wsb_grh.violations == renaming.violations == 0


def bench_explore_decision_map_replay(benchmark):
    """Tier 4's certificate replay protocol on the compiled core (n=3)."""
    from repro.core.gsb import SymmetricGSBTask
    from repro.decision.certificates import replay_decision_map
    from repro.topology.decision import search_decision_map
    from repro.topology.is_complex import ISProtocolComplex

    task = SymmetricGSBTask(3, 3, 0, 3)
    search = search_decision_map(
        task, ISProtocolComplex(3, 1), max_assignments=500_000
    )
    assert search.solvable

    problems = benchmark(replay_decision_map, task, 1, search.decision_map)
    assert problems == []
