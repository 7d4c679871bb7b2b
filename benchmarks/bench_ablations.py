"""Ablation experiments for the design choices DESIGN.md calls out.

* **Snapshot WLOG** — Figure 2 on the one-step snapshot primitive vs. the
  register-only implementation: same outputs, measurably more register
  steps (what Section 2.1's "without loss of generality" costs).
* **Scheduler sensitivity** — adaptive renaming's step count under
  benign (round-robin) vs. adversarial (solo, random, block) schedulers:
  contention, not size, drives retries.
* **Oracle adversarial freedom** — Figure 2 validity is independent of the
  slot oracle's strategy (deterministic, random, collision-steering).
"""

import random

from repro.algorithms import (
    adaptive_renaming_algorithm,
    figure2_register_system_factory,
    figure2_renaming,
    figure2_renaming_register_snapshot,
    figure2_system_factory,
    figure2_task,
)
from repro.shm import (
    BlockScheduler,
    LexMinStrategy,
    RandomScheduler,
    RandomStrategy,
    RoundRobinScheduler,
    SoloScheduler,
    colliding_slot_strategy,
    run_algorithm,
)
from repro.shm.runtime import default_identities


def _total_steps(algorithm, factory, n, scheduler_factory, seeds):
    total = 0
    for seed in seeds:
        arrays, objects = factory()
        result = run_algorithm(
            algorithm,
            default_identities(n, random.Random(seed)),
            scheduler_factory(seed),
            arrays=arrays,
            objects=objects,
            record_trace=False,
        )
        assert all(output is not None for output in result.outputs)
        total += result.steps
    return total


def bench_ablation_snapshot_primitive(benchmark):
    n = 5
    steps = benchmark(
        _total_steps,
        figure2_renaming(),
        figure2_system_factory(n, seed=1),
        n,
        lambda seed: RandomScheduler(seed),
        range(15),
    )
    assert steps == 15 * n * 3  # invoke + write + snapshot per process


def bench_ablation_snapshot_register_impl(benchmark):
    n = 5
    steps = benchmark(
        _total_steps,
        figure2_renaming_register_snapshot(),
        figure2_register_system_factory(n, seed=1),
        n,
        lambda seed: RandomScheduler(seed),
        range(15),
    )
    # The WLOG costs real work: scans need >= 2n reads each.
    assert steps > 15 * n * 3 * 3


def bench_ablation_scheduler_contention(benchmark):
    n = 6

    def sweep():
        factory = lambda: ({"RENAME": None}, {})
        outcomes = {}
        outcomes["solo"] = _total_steps(
            adaptive_renaming_algorithm(), factory, n,
            lambda seed: SoloScheduler(), range(10),
        )
        outcomes["round-robin"] = _total_steps(
            adaptive_renaming_algorithm(), factory, n,
            lambda seed: RoundRobinScheduler(), range(10),
        )
        outcomes["random"] = _total_steps(
            adaptive_renaming_algorithm(), factory, n,
            lambda seed: RandomScheduler(seed), range(10),
        )
        outcomes["block"] = _total_steps(
            adaptive_renaming_algorithm(), factory, n,
            lambda seed: BlockScheduler([list(range(n))]), range(10),
        )
        return outcomes

    outcomes = benchmark(sweep)
    # Solo runs are deterministic: the first process decides its initial
    # proposal (2 steps); each later one sees the decided proposals, takes
    # exactly one rank-based retry (4 steps).
    assert outcomes["solo"] == 10 * (2 + 4 * (n - 1))
    assert outcomes["block"] >= outcomes["solo"] // 2


def bench_ablation_oracle_strategies(benchmark):
    n = 6
    task = figure2_task(n)

    def sweep():
        failures = 0
        strategies = [
            LexMinStrategy(),
            RandomStrategy(),
            colliding_slot_strategy(n, 1, collide_first=True),
            colliding_slot_strategy(n, n - 1, collide_first=False),
        ]
        for index, strategy in enumerate(strategies):
            factory = figure2_system_factory(n, seed=index, strategy=strategy)
            for seed in range(10):
                arrays, objects = factory()
                result = run_algorithm(
                    figure2_renaming(),
                    default_identities(n, random.Random(seed)),
                    RandomScheduler(seed + index),
                    arrays=arrays,
                    objects=objects,
                )
                if not task.is_legal_output(result.outputs):
                    failures += 1
        return failures

    failures = benchmark(sweep)
    assert failures == 0


def bench_ablation_runtime_core(benchmark):
    """The compiled engine vs the legacy re-execution explorer.

    Same exhaustive exploration (renaming n=3, 1680 logical runs), same
    decided-vector multiset, different machinery: the engine forks
    array-backed machines over a shared step table and memoizes orbits,
    where the legacy explorer re-runs every prefix on the generator
    runtime (~0.6 s).  Shape expectation: the engine wins by >= 10x here
    and the gap widens with n (the legacy explorer needs ~130 s for
    renaming at n=4; see docs/architecture.md).
    """
    import time
    from collections import Counter

    from repro.shm import PrefixSharingEngine, get_spec
    from repro.shm.engine import make_spec_machine, make_spec_runtime
    from repro.shm.explore import legacy_explore_interleavings

    spec = get_spec("renaming")

    def sweep():
        started = time.perf_counter()
        engine = PrefixSharingEngine(
            make_spec_machine(spec, 3, frame_nodes=True),
            relabeler=spec.value_relabel,
        ).decided_vectors()
        compiled = time.perf_counter() - started
        started = time.perf_counter()
        legacy = Counter(
            tuple(run.outputs)
            for run in legacy_explore_interleavings(make_spec_runtime(spec, 3))
        )
        timings = {"compiled": compiled, "legacy": time.perf_counter() - started}
        assert engine == legacy
        return timings

    timings = benchmark(sweep)
    assert timings["legacy"] / timings["compiled"] >= 10
