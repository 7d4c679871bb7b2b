"""Differential property suite: compiled core vs the generator runtime.

The generator runtime (:mod:`repro.shm.runtime`) is the model's reference
semantics; the compiled core (:mod:`repro.shm.compiled`) must be
observationally identical on every workload the repository runs.  This
suite pins that, for every registry spec at n <= 3:

* **multiset identity** — the decided-vector multisets over all
  interleavings equal the legacy re-execution explorer's
  (:func:`repro.shm.explore.legacy_explore_interleavings` on the generator
  runtime), both for every materialized run (``runs()``: same runs, same
  lexicographic order) and for the memoized count (``decided_vectors``);
* **schedule identity** — under random schedules and random crash
  patterns, both runtimes produce the same outputs, decision steps,
  crash sets and step counts;
* **fork identity** — forking at *every* depth of a reference schedule
  and completing both the original and the fork deterministically gives
  the same results as a fresh generator run of the same schedule.
"""

import random
from collections import Counter

import pytest

from repro.shm import (
    CrashScheduler,
    ListScheduler,
    PrefixSharingEngine,
    RandomScheduler,
    available_specs,
    get_spec,
    make_spec_machine,
    make_spec_runtime,
)
from repro.shm.runtime import freeze_value

from .legacy_oracle import legacy_runs, legacy_vectors

ALL_SPECS = sorted(available_specs())
SIZES = (2, 3)
CASES = [
    (name, n)
    for name in ALL_SPECS
    for n in SIZES
    if n >= get_spec(name).min_n
]


def spec_pair(name, n):
    """(generator factory, machine factory) for one registry cell."""
    spec = get_spec(name)
    return make_spec_runtime(spec, n), make_spec_machine(spec, n)


def run_under(make, scheduler):
    runtime = make()
    runtime.scheduler = scheduler
    return runtime.run()


def observables(result):
    return (
        tuple(freeze_value(v) for v in result.outputs),
        tuple(result.decided_at),
        frozenset(result.crashed),
        result.steps,
    )


class TestMultisetIdentity:
    @pytest.mark.parametrize("name,n", CASES)
    def test_exact_mode_same_runs_same_order(self, name, n):
        _, make_machine = spec_pair(name, n)
        compiled_runs = tuple(
            tuple(freeze_value(v) for v in result.outputs)
            for result in PrefixSharingEngine(make_machine).runs()
        )
        assert compiled_runs == legacy_runs(name, n)

    @pytest.mark.parametrize("name,n", CASES)
    @pytest.mark.parametrize("frame_nodes", [False, True])
    def test_decided_vector_multisets_identical(self, name, n, frame_nodes):
        # Both step-table layouts: history-keyed nodes, and nodes merged
        # by local state (the layout the parallel and batch paths use).
        make_machine = make_spec_machine(
            get_spec(name), n, frame_nodes=frame_nodes
        )
        compiled = PrefixSharingEngine(make_machine).decided_vectors()
        assert compiled == legacy_vectors(name, n)

    @pytest.mark.parametrize("name,n", CASES)
    def test_memoized_equals_exact_on_compiled_core(self, name, n):
        _, make_machine = spec_pair(name, n)
        exact = Counter(
            tuple(freeze_value(v) for v in result.outputs)
            for result in PrefixSharingEngine(make_machine).runs()
        )
        memoized = PrefixSharingEngine(make_machine).decided_vectors()
        assert memoized == exact


class TestScheduleIdentity:
    @pytest.mark.parametrize("name,n", CASES)
    def test_random_schedules(self, name, n):
        make_runtime, make_machine = spec_pair(name, n)
        for seed in range(25):
            first = run_under(make_runtime, RandomScheduler(seed))
            second = run_under(make_machine, RandomScheduler(seed))
            assert observables(first) == observables(second), seed

    @pytest.mark.parametrize("name,n", CASES)
    def test_random_crash_patterns(self, name, n):
        make_runtime, make_machine = spec_pair(name, n)
        for seed in range(25):
            rng = random.Random(seed)
            crash_at = {
                rng.randrange(4 * n): victim
                for victim in rng.sample(range(n), rng.randint(0, n - 1))
            }
            first = run_under(
                make_runtime,
                CrashScheduler(RandomScheduler(seed + 1), dict(crash_at)),
            )
            second = run_under(
                make_machine,
                CrashScheduler(RandomScheduler(seed + 1), dict(crash_at)),
            )
            assert observables(first) == observables(second), (seed, crash_at)

    @pytest.mark.parametrize("name,n", CASES)
    def test_explicit_schedules(self, name, n):
        make_runtime, make_machine = spec_pair(name, n)
        for seed in range(10):
            rng = random.Random(seed)
            schedule = [rng.randrange(n) for _ in range(30 * n)]
            first = run_under(
                make_runtime, ListScheduler(schedule, then_finish=True)
            )
            second = run_under(
                make_machine, ListScheduler(schedule, then_finish=True)
            )
            assert observables(first) == observables(second), seed


class TestForkIdentity:
    @pytest.mark.parametrize("name,n", CASES)
    def test_fork_at_every_depth(self, name, n):
        make_runtime, make_machine = spec_pair(name, n)
        # A fixed reference schedule: round-robin over enabled pids.
        reference = make_machine()
        schedule = []
        while reference.enabled_pids():
            pid = reference.enabled_pids()[len(schedule) % len(reference.enabled_pids())]
            reference.step(pid)
            schedule.append(pid)
        for depth in range(len(schedule) + 1):
            machine = make_machine()
            for pid in schedule[:depth]:
                machine.step(pid)
            machine_fork = machine.fork()
            # Complete the original, the fork and a fresh generator replay
            # of the prefix with the same deterministic continuation
            # (lowest enabled pid first).
            for compiled_side in (machine, machine_fork):
                runtime = make_runtime()
                for pid in schedule[:depth]:
                    runtime.step(pid)
                while runtime.enabled_pids():
                    pid = min(runtime.enabled_pids())
                    runtime.step(pid)
                    compiled_side.step(pid)
                assert observables(runtime.result()) == observables(
                    compiled_side.result()
                ), (name, n, depth)

    @pytest.mark.parametrize("name,n", CASES)
    def test_forks_inherit_identical_state_evolution(self, name, n):
        # Fork mid-run, diverge the fork, and check the original was not
        # perturbed (no shared mutable state): it must still match an
        # unforked generator run of the same schedule.
        make_runtime, make_machine = spec_pair(name, n)
        runtime, machine = make_runtime(), make_machine()
        runtime.step(0)
        machine.step(0)
        machine_fork = machine.fork()
        if 1 in machine_fork.enabled_pids():
            machine_fork.step(1)
        while runtime.enabled_pids():
            pid = min(runtime.enabled_pids())
            runtime.step(pid)
            machine.step(pid)
        assert observables(runtime.result()) == observables(machine.result())
