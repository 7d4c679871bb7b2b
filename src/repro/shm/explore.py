"""Exhaustive interleaving exploration (model checking small runs).

For deterministic algorithms a run is fully determined by its schedule
(the pid sequence), so enumerating schedules enumerates runs.  Crashes need
no extra branching: a crashed process is exactly one that stops being
scheduled, so every *prefix* of an explored run is itself a legal run with
the undecided processes crashed — the harness therefore validates decided
values at every decision point, which covers all crash patterns, while this
module enumerates only completed runs of each participating set.

:func:`explore_interleavings` and :func:`explore_all_participant_subsets`
run on the prefix-sharing engine (:mod:`repro.shm.engine`), which forks
a compiled-core machine (:class:`repro.shm.compiled.MachineState`, e.g.
from :func:`repro.shm.engine.make_spec_machine`) at each branch point
instead of re-executing every prefix from scratch.

:func:`legacy_explore_interleavings` is the original re-execution
explorer over the generator runtime (:class:`repro.shm.runtime.Runtime`,
the model's reference semantics).  It re-runs every prefix fresh, with
no fork, memo or step table to trust, which makes it the independent
oracle the engine's differential suites compare against.

Cost without the engine's pruning: the number of interleavings of processes
taking ``k1, ..., kp`` steps is the multinomial coefficient; the engine's
orbit-memoized mode (:meth:`PrefixSharingEngine.decided_vectors`)
collapses commuting interleavings and pushes full exploration to n = 4-5.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator, Sequence

from .engine import ExplorationBudgetExceeded, PrefixSharingEngine
from .runtime import Runtime, RunResult

__all__ = [
    "ExplorationBudgetExceeded",
    "count_interleavings",
    "explore_all_participant_subsets",
    "explore_interleavings",
    "legacy_explore_interleavings",
]


def explore_interleavings(
    make_runtime: Callable[[], Any],
    participants: Sequence[int] | None = None,
    max_runs: int | None = None,
    max_depth: int = 10_000,
) -> Iterator[RunResult]:
    """Yield the result of every interleaving of the participating set.

    Args:
        make_runtime: factory producing a *fresh* compiled-core machine per
            exploration (construction must be cheap and deterministic).
            The machine's own scheduler is ignored.
        participants: pids allowed to take steps (others crash before their
            first step); defaults to all processes.
        max_runs: raise :class:`ExplorationBudgetExceeded` beyond this many
            completed runs.
        max_depth: per-run step bound (guards against non-termination).
    """
    yield from PrefixSharingEngine(
        make_runtime,
        participants=participants,
        max_runs=max_runs,
        max_depth=max_depth,
    ).runs()


def legacy_explore_interleavings(
    make_runtime: Callable[[], Runtime],
    participants: Sequence[int] | None = None,
    max_runs: int | None = None,
    max_depth: int = 10_000,
) -> Iterator[RunResult]:
    """The original explorer: re-execute every run prefix from scratch.

    ``make_runtime`` produces a fresh generator :class:`Runtime` (e.g.
    :func:`repro.shm.engine.make_spec_runtime`).  Yields the same runs in
    the same lexicographic (by pid) order as :func:`explore_interleavings`.
    O(nodes x depth) full step re-executions; keep n <= 3 (or 4 with very
    short protocols).  The sole differential reference for the engine.
    """
    probe = make_runtime()
    if participants is None:
        participants = list(range(probe.n))
    participant_set = set(participants)
    produced = 0

    def replay(prefix: list[int]) -> Runtime:
        runtime = make_runtime()
        for pid in prefix:
            runtime.step(pid)
        return runtime

    stack: list[list[int]] = [[]]
    while stack:
        prefix = stack.pop()
        if len(prefix) > max_depth:
            raise ExplorationBudgetExceeded(
                f"run prefix exceeded {max_depth} steps; non-terminating protocol?"
            )
        runtime = replay(prefix)
        enabled = [pid for pid in runtime.enabled_pids() if pid in participant_set]
        if not enabled:
            produced += 1
            if max_runs is not None and produced > max_runs:
                raise ExplorationBudgetExceeded(
                    f"exploration produced more than {max_runs} runs"
                )
            yield runtime.result()
            continue
        # Reversed push order makes the iteration lexicographic in pid order.
        for pid in reversed(enabled):
            stack.append(prefix + [pid])


def explore_all_participant_subsets(
    make_runtime: Callable[[], Runtime],
    min_participants: int = 1,
    max_runs: int | None = None,
) -> Iterator[tuple[tuple[int, ...], RunResult]]:
    """Explore every interleaving of every participating subset.

    Yields ``(participants, result)`` pairs.  Processes outside the subset
    never take a step (crash-at-start); the paper's validity condition for
    such runs is checked by the harness via partial-output extendability.
    """
    probe = make_runtime()
    n = probe.n
    produced = 0
    for size in range(min_participants, n + 1):
        for participants in itertools.combinations(range(n), size):
            for result in explore_interleavings(
                make_runtime, participants=participants
            ):
                produced += 1
                if max_runs is not None and produced > max_runs:
                    raise ExplorationBudgetExceeded(
                        f"exploration produced more than {max_runs} runs"
                    )
                yield participants, result


def count_interleavings(step_counts: Sequence[int]) -> int:
    """Number of interleavings of processes taking the given step counts.

    The multinomial coefficient; used by tests to cross-check exploration
    exhaustiveness for fixed-length protocols.
    """
    import math

    total = sum(step_counts)
    ways = math.factorial(total)
    for count in step_counts:
        ways //= math.factorial(count)
    return ways
