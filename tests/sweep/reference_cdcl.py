"""The linear-scan CDCL solver as the differential oracle for ``solve_cnf``.

This is the solver :mod:`repro.sweep.sat` shipped before its branching
moved onto an activity heap and its assignment onto flat arrays: dict
state, a scan over every variable per decision.  The fast solver must
reproduce it step for step — the same ``(satisfiable, conflicts,
decisions, model)`` on every input and the same budget overruns — so the
suites in ``test_sat.py`` compare the two on the decision-map grid and on
random CNFs.  It is slow (~6 s on the ``<4,3,0,2>`` 2-round rung), which
is why that rung is pinned by constants rather than re-solved here.
"""

from __future__ import annotations

from typing import Sequence

from repro.sweep.sat import SatBudgetExceeded, SatResult


def reference_solve_cnf(
    num_vars: int,
    clauses: Sequence[Sequence[int]],
    max_conflicts: int | None = None,
) -> SatResult:
    """Decide a CNF with a self-contained CDCL solver.

    Raises :class:`SatBudgetExceeded` when ``max_conflicts`` runs out —
    the caller records the rung as exhausted rather than concluding
    anything.  Polarity defaults to False (use few values first), which
    together with the value-precede chain steers models toward the
    lexicographically least decision map; after the first restart,
    phase saving takes over.  Restarts follow a Luby sequence; learned
    clauses are never deleted, so the solver stays complete.
    """
    assign: dict[int, bool] = {}
    level: dict[int, int] = {}
    reason: dict[int, list[int] | None] = {}
    trail: list[int] = []
    database: list[list[int]] = []
    watches: dict[int, list[int]] = {}
    activity = [0.0] * (num_vars + 1)
    phase = [False] * (num_vars + 1)
    conflicts = 0
    decisions = 0

    def value(lit: int) -> bool | None:
        truth = assign.get(abs(lit))
        if truth is None:
            return None
        return truth == (lit > 0)

    def enqueue(lit: int, at: int, because: list[int] | None) -> None:
        variable = abs(lit)
        assign[variable] = lit > 0
        level[variable] = at
        reason[variable] = because
        trail.append(variable)
        queue.append(variable)

    def watch(cid: int) -> None:
        for lit in database[cid][:2]:
            watches.setdefault(lit, []).append(cid)

    queue: list[int] = []
    for raw in clauses:
        clause = list(raw)
        if not clause:
            return SatResult(False, None, conflicts, decisions)
        if len(clause) == 1:
            lit = clause[0]
            current = value(lit)
            if current is False:
                return SatResult(False, None, conflicts, decisions)
            if current is None:
                enqueue(lit, 0, None)
            continue
        database.append(clause)
        watch(len(database) - 1)

    def propagate(at: int) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        while queue:
            variable = queue.pop()
            false_lit = -variable if assign[variable] else variable
            watching = watches.get(false_lit, [])
            index = 0
            while index < len(watching):
                cid = watching[index]
                clause = database[cid]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = value(clause[0])
                if first is True:
                    index += 1
                    continue
                moved = False
                for slot in range(2, len(clause)):
                    if value(clause[slot]) is not False:
                        clause[1], clause[slot] = clause[slot], clause[1]
                        watches.setdefault(clause[1], []).append(cid)
                        watching[index] = watching[-1]
                        watching.pop()
                        moved = True
                        break
                if moved:
                    continue
                if first is False:
                    return clause
                enqueue(clause[0], at, clause)
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
            while trail and level[trail[-1]] > 0:
                variable = trail.pop()
                phase[variable] = assign[variable]
                del assign[variable], level[variable], reason[variable]
            current_level = 0
            queue.clear()
            restart_count += 1
            restart_limit = 256 * luby(restart_count)
            since_restart = 0
        # Branch: highest-activity unassigned variable, saved polarity.
        branch = 0
        best = -1.0
        for variable in range(1, num_vars + 1):
            if variable not in assign and activity[variable] > best:
                branch, best = variable, activity[variable]
        if branch == 0:
            return SatResult(True, dict(assign), conflicts, decisions)
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
                    variable = abs(lit)
                    if variable == pivot or variable in seen:
                        continue
                    if level[variable] == 0:
                        continue
                    seen.add(variable)
                    activity[variable] += 1.0
                    if level[variable] == current_level:
                        pending += 1
                    else:
                        learnt.append(
                            -variable if assign[variable] else variable
                        )
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
            uip = -pivot if assign[pivot] else pivot
            learnt.insert(0, uip)
            backtrack_level = (
                max(level[abs(lit)] for lit in learnt[1:])
                if len(learnt) > 1
                else 0
            )
            while trail and level[trail[-1]] > backtrack_level:
                variable = trail.pop()
                phase[variable] = assign[variable]
                del assign[variable], level[variable], reason[variable]
            current_level = backtrack_level
            queue.clear()
            if len(learnt) == 1:
                enqueue(uip, 0, None)
            else:
                database.append(learnt)
                watch(len(database) - 1)
                enqueue(uip, current_level, learnt)
            if conflicts % 256 == 0:
                for variable in range(1, num_vars + 1):
                    activity[variable] *= 0.5
