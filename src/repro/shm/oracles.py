"""Task oracles: the enriched model ``ASM(n, t)[T]`` (Sections 2.1, 5, 6).

The paper studies reductions of the form "task A is solvable from registers
plus any solution to task B".  A :class:`GSBOracle` plays the role of that
black-box solution: it is a linearizable one-shot object (each invocation
executes atomically at its runtime step) whose outputs always form a legal
output vector of B.

Because GSB legality depends only on the *multiset* of decided values, the
oracle precommits to a legal value multiset and hands values out by arrival
order, with a pluggable :class:`AssignmentStrategy` controlling which
multiset and which hand-out order — the adversarial freedom a real solution
to B would have.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..core.gsb import GSBTask
from ..core.kernel import counting_vector


class OracleUsageError(RuntimeError):
    """A process used a one-shot oracle incorrectly (double invoke, ...)."""


class AssignmentStrategy:
    """Chooses the value multiset an oracle hands out, and its order.

    Subclasses override :meth:`values_for`; the base class validates the
    result against the task.
    """

    def values_for(self, task: GSBTask, rng: random.Random) -> list[int]:
        raise NotImplementedError

    def validated_values(self, task: GSBTask, rng: random.Random) -> list[int]:
        values = list(self.values_for(task, rng))
        if len(values) != task.n:
            raise OracleUsageError(
                f"strategy produced {len(values)} values for {task.n} processes"
            )
        if not task.bounds.admits_counts(counting_vector(values, task.m)):
            raise OracleUsageError(
                f"strategy produced illegal value multiset {values} for {task}"
            )
        return values


class LexMinStrategy(AssignmentStrategy):
    """Deterministic: the lexicographically smallest legal output vector.

    Values are handed out in vector order, so equal values cluster on the
    earliest arrivals — the adversary's favourite for conflict-heavy tests.
    """

    def values_for(self, task: GSBTask, rng: random.Random) -> list[int]:
        return list(task.deterministic_output_vector())


class RandomStrategy(AssignmentStrategy):
    """A random legal counting vector, handed out in shuffled order."""

    def values_for(self, task: GSBTask, rng: random.Random) -> list[int]:
        countings = list(task.counting_vectors())
        counts = rng.choice(countings)
        values = [
            value
            for value, count in enumerate(counts, start=1)
            for _ in range(count)
        ]
        rng.shuffle(values)
        return values


class ExplicitStrategy(AssignmentStrategy):
    """Hand out exactly the given values, in arrival order.

    Lets tests steer which processes collide (e.g. Figure 2's proof case
    analysis needs the two same-slot processes to arrive in chosen
    positions).
    """

    def __init__(self, values: Sequence[int]):
        self._values = list(values)

    def values_for(self, task: GSBTask, rng: random.Random) -> list[int]:
        return list(self._values)


class GSBOracle:
    """A linearizable one-shot object solving a GSB task.

    Invoke with method ``"acquire"`` (no arguments); each process may
    acquire once and receives a value such that the full output vector —
    under any completion of the remaining acquisitions — is legal for the
    task.  That is exactly the guarantee an algorithm solving the task
    provides to its callers.

    Args:
        task: the GSB task this oracle solves.
        strategy: value-multiset choice; defaults to :class:`RandomStrategy`.
        seed: rng seed for strategies that randomize.
    """

    #: method name understood by :class:`repro.shm.ops.Invoke`
    ACQUIRE = "acquire"

    def __init__(
        self,
        task: GSBTask,
        strategy: AssignmentStrategy | None = None,
        seed: int = 0,
    ):
        if not task.is_feasible:
            raise OracleUsageError(f"cannot build an oracle for infeasible {task}")
        self.task = task
        self._rng = random.Random(seed)
        self._strategy = strategy if strategy is not None else RandomStrategy()
        self._values = self._strategy.validated_values(task, self._rng)
        self._arrivals: list[int] = []
        self._assigned: dict[int, int] = {}

    def invoke(self, pid: int, method: str, args: tuple) -> int:
        if method != self.ACQUIRE:
            raise OracleUsageError(
                f"{type(self).__name__} supports only {self.ACQUIRE!r}, got {method!r}"
            )
        if pid in self._assigned:
            raise OracleUsageError(f"process {pid} acquired twice from {self.task}")
        value = self._values[len(self._arrivals)]
        self._arrivals.append(pid)
        self._assigned[pid] = value
        return value

    @property
    def assigned(self) -> dict[int, int]:
        """pid -> value handed out so far (observability for tests)."""
        return dict(self._assigned)

    @property
    def arrival_order(self) -> list[int]:
        return list(self._arrivals)


def perfect_renaming_oracle(
    n: int, strategy: AssignmentStrategy | None = None, seed: int = 0
) -> GSBOracle:
    """Oracle for the universal ``<n, n, 1, 1>`` task (Theorem 8's input)."""
    from ..core.named import perfect_renaming

    return GSBOracle(perfect_renaming(n), strategy=strategy, seed=seed)


def slot_oracle(
    n: int, k: int, strategy: AssignmentStrategy | None = None, seed: int = 0
) -> GSBOracle:
    """Oracle for the ``<n, k, 1, n>`` k-slot task (Figure 2's KS object)."""
    from ..core.named import k_slot

    return GSBOracle(k_slot(n, k), strategy=strategy, seed=seed)


def renaming_oracle(
    n: int, m: int, strategy: AssignmentStrategy | None = None, seed: int = 0
) -> GSBOracle:
    """Oracle for non-adaptive m-renaming ``<n, m, 0, 1>``."""
    from ..core.named import renaming

    return GSBOracle(renaming(n, m), strategy=strategy, seed=seed)


def colliding_slot_strategy(
    n: int, duplicated_slot: int, collide_first: bool = True
) -> ExplicitStrategy:
    """A slot assignment for ``<n, n-1, 1, n>`` with one chosen collision.

    Exactly two processes receive ``duplicated_slot``; all other slots in
    ``[1..n-1]`` are handed out once.  ``collide_first`` places the two
    colliding acquisitions first (the hard case in Theorem 12's proof),
    otherwise last.
    """
    if not 1 <= duplicated_slot <= n - 1:
        raise ValueError(
            f"duplicated slot must be in [1..{n - 1}], got {duplicated_slot}"
        )
    others = [slot for slot in range(1, n) if slot != duplicated_slot]
    pair = [duplicated_slot, duplicated_slot]
    values = pair + others if collide_first else others + pair
    return ExplicitStrategy(values)
