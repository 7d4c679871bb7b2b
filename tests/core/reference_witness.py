"""The per-subset legality check as the differential oracle for
``decision_function_is_valid``.

This is how :func:`repro.core.solvability.decision_function_is_valid`
worked before its loop was tightened: every participating set of
identities becomes an output vector that goes through
``task.is_legal_output`` (range check, counting vector, ``BoundVector``
admission).  The tight loop must give the same answer on every
decision function, which ``test_witness_check.py`` checks on Theorem 9
witnesses, on mutated witnesses and on asymmetric tasks.
"""

from __future__ import annotations

import itertools

from repro.core.gsb import GSBTask
from repro.core.task import identity_space


def reference_decision_function_is_valid(
    task: GSBTask, delta: dict[int, int]
) -> bool:
    """Whether ``delta`` solves ``task`` for every participating id set."""
    identities = list(identity_space(task.n))
    if set(delta) != set(identities):
        return False
    for chosen in itertools.combinations(identities, task.n):
        outputs = [delta[identity] for identity in chosen]
        if not task.is_legal_output(outputs):
            return False
    return True
