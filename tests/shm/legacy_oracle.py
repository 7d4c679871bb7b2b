"""The legacy re-execution explorer as the shared differential oracle.

Every differential suite pins the engine to
:func:`repro.shm.explore.legacy_explore_interleavings` on the generator
runtime: it re-executes each prefix fresh, with no fork, memo or step
table to trust.  That makes it slow (all seven participant subsets of
wsb-grh at n=3 take ~20 s), so each (spec, n, participants) cell is
explored once per test session and shared by every suite that needs it.
"""

import functools
import itertools
from collections import Counter

from repro.shm import get_spec, legacy_explore_interleavings, make_spec_runtime
from repro.shm.runtime import freeze_value


@functools.lru_cache(maxsize=None)
def _legacy(name, n, participants):
    runs = tuple(
        tuple(freeze_value(v) for v in result.outputs)
        for result in legacy_explore_interleavings(
            make_spec_runtime(get_spec(name), n), participants=participants
        )
    )
    return runs, Counter(runs)


def _key(n, participants):
    return tuple(range(n)) if participants is None else tuple(participants)


def legacy_runs(name, n, participants=None):
    """Decided vectors of every interleaving, in the explorer's
    lexicographic (by pid) order."""
    return _legacy(name, n, _key(n, participants))[0]


def legacy_vectors(name, n, participants=None):
    """Decided-vector multiset of every interleaving (shared: read-only)."""
    return _legacy(name, n, _key(n, participants))[1]


def all_subsets(n):
    """Every non-empty participant subset, by size then lexicographically."""
    return [
        subset
        for size in range(1, n + 1)
        for subset in itertools.combinations(range(n), size)
    ]
