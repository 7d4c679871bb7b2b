"""SAT encoding of r-round decision-map existence, with a built-in solver.

The exhaustive tier-4 search (:func:`repro.topology.decision.search_decision_map`)
walks the decision-map space class by class, re-checking facet legality in
Python per assignment — complete, but slow on the larger complexes the
close-open sweep wants to attack.  This module recasts the same question
as propositional satisfiability:

* one boolean per ``(canonical class, output value)`` pair with
  exactly-one constraints per class;
* per facet and value, the task's counting bounds become clauses — the
  at-most-``u`` side forbids every *minimal* subset of the facet's
  classes whose multiplicities sum past ``u``, the at-least-``l`` side
  requires a value in the complement of every *maximal* deficient
  subset (facets have at most ``n`` distinct classes, so both
  enumerations are tiny);
* value interchangeability of symmetric GSB tasks — legality depends
  only on the multiset of per-value counts — is broken with a
  **value-precede chain** over the deterministic class order (value
  ``w`` may first appear only after ``w - 1``), the clause-level
  counterpart of the ``value_precede`` breakers catalogued in
  SNIPPETS.md; it generalizes the first-class-pins-value-1 trick the
  backtracking search uses.

Satisfying assignments decode to decision maps (independently verified
and certified by the caller); refutations are sound "no r-round
comparison-based protocol exists" statements, the same bounded evidence
the exhaustive tier records.

The solver is a dependency-free CDCL — two-watched-literal propagation,
first-UIP conflict learning, activity-driven branching from a heap — so
the attack has no hard dependency on an external SAT solver.  A conflict
budget makes every call terminate; exceeding it raises
:class:`SatBudgetExceeded`, which the sweep records as an exhausted
attack rung.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Mapping, Sequence

from ..core.gsb import GSBTask
from ..topology.decision import decision_class_order
from ..topology.is_complex import ISProtocolComplex


class SatBudgetExceeded(RuntimeError):
    """The conflict budget ran out before SAT/UNSAT was established."""


@dataclass(frozen=True)
class DecisionMapEncoding:
    """A CNF whose models are exactly the legal decision maps.

    ``class_order`` is the deterministic order of
    :func:`repro.topology.decision.decision_class_order`; variable
    ``class_index * m + value`` (1-based values) is true iff the class
    decides that value, so models decode positionally.
    """

    n: int
    m: int
    rounds: int
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    class_order: tuple

    def decode(self, model: Mapping[int, bool]) -> dict:
        """Model -> decision map (class label -> output value)."""
        decision_map = {}
        for index, label in enumerate(self.class_order):
            values = [
                value
                for value in range(1, self.m + 1)
                if model.get(index * self.m + value)
            ]
            if len(values) != 1:
                raise ValueError(
                    f"model assigns {len(values)} values to class {index}"
                )
            decision_map[label] = values[0]
        return decision_map


def _counting_shapes(
    counts: tuple[int, ...], low: int, high: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Counting-clause shapes of a facet with class multiplicities ``counts``.

    Positions index the facet's distinct classes in ascending order.  The
    first list holds the *minimal* subsets whose multiplicities sum past
    ``high`` (at most ``high`` per value: not all of them may take it);
    the second the complements of the *maximal* subsets that sum below
    ``low`` (at least ``low`` per value: one of them must take it).
    """
    positions = range(len(counts))
    at_most = []
    for size in range(1, len(counts) + 1):
        for subset in itertools.combinations(positions, size):
            total = sum(counts[p] for p in subset)
            if total > high and all(total - counts[p] <= high for p in subset):
                at_most.append(subset)
    at_least = []
    if low >= 1:
        for size in range(0, len(counts) + 1):
            for subset in itertools.combinations(positions, size):
                total = sum(counts[p] for p in subset)
                if total >= low:
                    continue
                rest = tuple(p for p in positions if p not in subset)
                if all(total + counts[p] >= low for p in rest):
                    at_least.append(rest)
    return at_most, at_least


def encode_decision_map(
    task: GSBTask, complex_: ISProtocolComplex
) -> DecisionMapEncoding:
    """CNF for "an r-round comparison-based decision map solves ``task``"."""
    if task.n != complex_.n:
        raise ValueError(
            f"task is on {task.n} processes but the complex has {complex_.n}"
        )
    classes = complex_.canonical_classes()
    order = decision_class_order(complex_)
    position = {label: index for index, label in enumerate(order)}
    m = task.m
    low, high = task.low, task.high
    # ``positive[i][v - 1]`` is the variable "class i decides v"; zipping
    # the rows of a class subset yields that subset's clause per value.
    positive = [
        tuple(range(index * m + 1, index * m + m + 1))
        for index in range(len(order))
    ]
    negative = [tuple(-lit for lit in row) for row in positive]

    clauses: set[tuple[int, ...]] = set(positive)
    for row in negative:
        clauses.update(itertools.combinations(row, 2))
    # Facets repeat class multisets heavily (the complex is built from
    # order-isomorphic views); dedupe before clause generation, and share
    # the subset enumeration between facets with equal multiplicities.
    fingerprints: set[tuple] = set()
    for facet in complex_.facets():
        mult: dict[int, int] = {}
        for vertex in facet:
            index = position[classes[vertex]]
            mult[index] = mult.get(index, 0) + 1
        fingerprints.add(tuple(sorted(mult.items())))
    shapes: dict[tuple[int, ...], tuple] = {}
    for fingerprint in fingerprints:
        members = [index for index, _ in fingerprint]
        counts = tuple(count for _, count in fingerprint)
        if counts not in shapes:
            shapes[counts] = _counting_shapes(counts, low, high)
        at_most, at_least = shapes[counts]
        for subset in at_most:
            clauses.update(zip(*[negative[members[p]] for p in subset]))
        for rest in at_least:
            if rest:
                clauses.update(zip(*[positive[members[p]] for p in rest]))
            else:
                clauses.add(())  # the facet cannot reach ``low`` at all
    if task.is_symmetric:
        # Value-precede chain over the class order: w appears only after
        # w-1 did.  Sound because symmetric-task legality is invariant
        # under value permutation (it only reads per-value counts).
        for w in range(2, m + 1):
            earlier: tuple[int, ...] = ()
            for index in range(len(order)):
                clauses.add((negative[index][w - 1],) + earlier)
                earlier += (positive[index][w - 2],)
    return DecisionMapEncoding(
        n=task.n,
        m=m,
        rounds=complex_.rounds,
        num_vars=len(order) * m,
        # Clauses are distinct, so sorting by value and then stably by
        # length is the (length, clause) order.
        clauses=tuple(sorted(sorted(clauses), key=len)),
        class_order=tuple(order),
    )


@dataclass
class SatResult:
    """Outcome of one :func:`solve_cnf` call."""

    satisfiable: bool
    model: dict[int, bool] | None
    conflicts: int
    decisions: int


def solve_cnf(
    num_vars: int,
    clauses: Sequence[Sequence[int]],
    max_conflicts: int | None = None,
) -> SatResult:
    """Decide a CNF with a self-contained CDCL solver.

    Raises :class:`SatBudgetExceeded` when ``max_conflicts`` runs out —
    the caller records the rung as exhausted rather than concluding
    anything — and :class:`ValueError` when a clause holds a literal
    outside ``±1..±num_vars``.  Polarity defaults to False (use few
    values first), which together with the value-precede chain steers
    models toward the lexicographically least decision map; after the
    first restart, phase saving takes over.  Restarts follow a Luby
    sequence; learned clauses are never deleted, so the solver stays
    complete.  Branching picks the highest-activity unassigned variable,
    lowest index on ties, from a lazy heap.
    """
    for raw in clauses:
        if raw and (0 in raw or max(raw) > num_vars or min(raw) < -num_vars):
            raise ValueError(
                f"clause {tuple(raw)} has a literal outside "
                f"±1..±{num_vars}"
            )
    # Literal-indexed truth: ``value[lit]`` for ``lit`` in ``±1..±n`` (a
    # negative literal indexes from the end), None while unassigned.
    # ``watches`` is indexed the same way; ``level``/``reason`` by variable.
    size = 2 * num_vars + 1
    value: list[bool | None] = [None] * size
    watches: list[list[list[int]]] = [[] for _ in range(size)]
    level = [0] * (num_vars + 1)
    reason: list[list[int] | None] = [None] * (num_vars + 1)
    trail: list[int] = []
    queue: list[int] = []
    activity = [0.0] * (num_vars + 1)
    phase = [False] * (num_vars + 1)
    # Lazy branching heap of ``(-activity, var)``.  ``fresh[v]`` says the
    # heap holds an entry for ``v`` at its current activity; every
    # unassigned variable has one, so the first fresh unassigned entry
    # popped is the highest-activity unassigned variable, lowest index on
    # ties.  Activity only grows between halvings, and each halving
    # rebuilds the heap, so an entry is stale iff its key is not ``v``'s
    # current activity.
    heap = [(0.0, variable) for variable in range(1, num_vars + 1)]
    fresh = [True] * (num_vars + 1)
    conflicts = 0
    decisions = 0

    def enqueue(lit: int, at: int, because: list[int] | None) -> None:
        value[lit] = True
        value[-lit] = False
        variable = lit if lit > 0 else -lit
        level[variable] = at
        reason[variable] = because
        trail.append(variable)
        queue.append(variable)

    def unassign_to(keep: int) -> None:
        """Pop the trail down to decision level ``keep``."""
        while trail and level[trail[-1]] > keep:
            variable = trail.pop()
            phase[variable] = value[variable]
            value[variable] = value[-variable] = None
            if not fresh[variable]:
                fresh[variable] = True
                heappush(heap, (-activity[variable], variable))

    for raw in clauses:
        clause = list(raw)
        if not clause:
            return SatResult(False, None, conflicts, decisions)
        if len(clause) == 1:
            lit = clause[0]
            current = value[lit]
            if current is False:
                return SatResult(False, None, conflicts, decisions)
            if current is None:
                enqueue(lit, 0, None)
            continue
        watches[clause[0]].append(clause)
        watches[clause[1]].append(clause)

    # The hot loop's state is bound as defaults: fast locals, not cells.
    def propagate(
        at: int,
        value=value,
        watches=watches,
        level=level,
        reason=reason,
        trail=trail,
        queue=queue,
    ) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        while queue:
            variable = queue.pop()
            false_lit = -variable if value[variable] else variable
            watching = watches[false_lit]
            index = 0
            end = len(watching)
            while index < end:
                clause = watching[index]
                first = clause[0]
                if first == false_lit:
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                truth = value[first]
                if truth is True:
                    index += 1
                    continue
                for slot in range(2, len(clause)):
                    lit = clause[slot]
                    if value[lit] is not False:
                        clause[1], clause[slot] = lit, clause[1]
                        watches[lit].append(clause)
                        end -= 1
                        watching[index] = watching[end]
                        watching.pop()
                        break
                else:
                    if truth is False:
                        return clause
                    # Enqueue ``first``, implied at this level.
                    value[first] = True
                    value[-first] = False
                    implied = first if first > 0 else -first
                    level[implied] = at
                    reason[implied] = clause
                    trail.append(implied)
                    queue.append(implied)
                    index += 1
        return None

    conflict = propagate(0)
    if conflict is not None:
        return SatResult(False, None, conflicts, decisions)

    def luby(index: int) -> int:
        """The Luby restart sequence 1,1,2,1,1,2,4,... (0-indexed)."""
        size, depth = 1, 0
        while size < index + 1:
            depth += 1
            size = 2 * size + 1
        while size - 1 != index:
            size = (size - 1) // 2
            depth -= 1
            index %= size
        return 1 << depth

    restart_count = 0
    restart_limit = 256 * luby(0)
    since_restart = 0
    current_level = 0
    while True:
        if since_restart >= restart_limit and current_level > 0:
            # Restart: keep the learned clauses, drop the decisions.
            unassign_to(0)
            current_level = 0
            queue.clear()
            restart_count += 1
            restart_limit = 256 * luby(restart_count)
            since_restart = 0
        # Branch: highest-activity unassigned variable, saved polarity.
        branch = 0
        while heap:
            key, variable = heappop(heap)
            if -key != activity[variable]:
                continue  # stale
            fresh[variable] = False
            if value[variable] is None:
                branch = variable
                break
        if branch == 0:
            model = {
                variable: value[variable] for variable in range(1, num_vars + 1)
            }
            return SatResult(True, model, conflicts, decisions)
        decisions += 1
        current_level += 1
        enqueue(branch if phase[branch] else -branch, current_level, None)
        while True:
            conflict = propagate(current_level)
            if conflict is None:
                break
            conflicts += 1
            since_restart += 1
            if max_conflicts is not None and conflicts > max_conflicts:
                raise SatBudgetExceeded(
                    f"SAT search exceeded {max_conflicts} conflicts"
                )
            if current_level == 0:
                return SatResult(False, None, conflicts, decisions)
            # First-UIP conflict analysis.
            learnt: list[int] = []
            seen: set[int] = set()
            pending = 0
            pivot: int | None = None
            clause = conflict
            cursor = len(trail) - 1
            while True:
                for lit in clause:
                    variable = lit if lit > 0 else -lit
                    if variable == pivot or variable in seen:
                        continue
                    at = level[variable]
                    if at == 0:
                        continue
                    seen.add(variable)
                    activity[variable] += 1.0
                    fresh[variable] = False  # assigned; re-queued on unassign
                    if at == current_level:
                        pending += 1
                    else:
                        learnt.append(-variable if value[variable] else variable)
                while (
                    trail[cursor] not in seen
                    or level[trail[cursor]] != current_level
                ):
                    cursor -= 1
                pivot = trail[cursor]
                pending -= 1
                seen.discard(pivot)
                if pending == 0:
                    break
                clause = reason[pivot] or []
                cursor -= 1
            uip = -pivot if value[pivot] else pivot
            learnt.insert(0, uip)
            backtrack_level = (
                max(level[abs(lit)] for lit in learnt[1:])
                if len(learnt) > 1
                else 0
            )
            unassign_to(backtrack_level)
            current_level = backtrack_level
            queue.clear()
            if len(learnt) == 1:
                enqueue(uip, 0, None)
            else:
                watches[learnt[0]].append(learnt)
                watches[learnt[1]].append(learnt)
                enqueue(uip, current_level, learnt)
            if conflicts % 256 == 0:
                for variable in range(1, num_vars + 1):
                    activity[variable] *= 0.5
                heap[:] = [
                    (-activity[variable], variable)
                    for variable in range(1, num_vars + 1)
                    if value[variable] is None
                ]
                heapify(heap)
                for variable in range(1, num_vars + 1):
                    fresh[variable] = value[variable] is None


def solve_decision_map_sat(
    task: GSBTask,
    complex_: ISProtocolComplex,
    max_conflicts: int | None = None,
) -> tuple[dict | None, SatResult]:
    """Encode + solve; returns ``(decision_map | None, raw SAT result)``."""
    encoding = encode_decision_map(task, complex_)
    result = solve_cnf(
        encoding.num_vars, encoding.clauses, max_conflicts=max_conflicts
    )
    if not result.satisfiable:
        return None, result
    return encoding.decode(result.model), result
