"""Subtree-parallel exploration: shard the DFS frontier across processes.

Exhaustive exploration is a tree search, and the compiled core
(:mod:`repro.shm.compiled`) made rebuilding any interior configuration
cheap: a worker re-creates the machine from the registry spec and steps a
short schedule prefix.  That turns the schedule tree into embarrassingly
parallel work:

1. the parent walks the tree to ``shard_depth`` (forking, exactly like the
   serial engine), collecting the frontier's schedule *prefixes* — leaves
   shallower than the shard depth are counted immediately;
2. each prefix becomes one job ``(spec name, n, prefix)`` on a
   :class:`concurrent.futures.ProcessPoolExecutor` — only registry names
   cross the process boundary, so nothing unpicklable ships;
3. workers run the ordinary :class:`~repro.shm.engine.PrefixSharingEngine`
   from the prefix-stepped machine and return their decided-vector
   counter plus :class:`~repro.shm.engine.EngineStats`;
4. the parent merges counters (exact: subtrees partition the run set) and
   stats.

Memoization used to be strictly per worker — subtrees sharded apart could
not share a memo, so the merged ``stats.runs``/``orbits`` could far
exceed a serial memoized exploration's.  Two mechanisms close that gap:

* the parent **pre-traces** its step table (roots + the frontier walk)
  and ships the exported table to every pool worker through the pool
  initializer, so workers skip the per-process generator re-trace
  (:meth:`~repro.shm.compiled.CompiledProtocol.import_table`); the
  per-process :func:`_cached_spec_factory` remains the fallback for
  unregistered specs and table mismatches;
* each pool worker keeps one orbit memo across every shard of the
  exploration it lands (all shards share the participant set, so this is
  as sound as the in-parent serial path's single memo), and workers
  exchange finished orbit-memo entries through a shared-memory ring
  (:mod:`repro.shm.memoshare`), publishing heavy subtrees and consulting
  the ring before descending — cross-subtree sharing without
  cross-worker locking on the read path.

The returned multiset is identical either way, which the tests pin
against the serial engine.  Each shard job also returns its worker's
exchange-counter delta, which the parent folds into its own
``engine.memo_share`` counters, and every fallback (no pool, a retried
shard, no ring) is counted under ``engine.parallel``.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field

from .engine import (
    EngineStats,
    ExplorationBudgetExceeded,
    PrefixSharingEngine,
    _require_quotient,
    get_spec,
    make_spec_machine,
)
from .memoshare import (
    attach_shared_memo,
    fold_share_counters,
    share_counters,
)
from .runtime import freeze_value

__all__ = [
    "ParallelOutcome",
    "default_shard_depth",
    "explore_decided_parallel",
    "shard_frontier",
]


#: Process-wide sharding counters (registered with core.cache_config).
_PARALLEL_TOTALS = {
    "explorations": 0,  # sharded explorations
    "shards": 0,  # frontier prefixes dispatched
    "pooled_shards": 0,  # shards a process pool completed
    "pool_unavailable": 0,  # pools that could not start: shards ran in-process
    "shard_retries": 0,  # failed shards resubmitted on a fresh pool
    "ring_unavailable": 0,  # memo rings the parent could not create
}


def _register_parallel_counters() -> None:
    from ..core.cache_config import register_counters

    def _stats() -> dict:
        return dict(_PARALLEL_TOTALS)

    def _clear() -> None:
        for key in _PARALLEL_TOTALS:
            _PARALLEL_TOTALS[key] = 0

    try:
        register_counters("engine.parallel", _stats, _clear)
    except ValueError:  # pragma: no cover - double import guard
        pass


_register_parallel_counters()


@dataclass
class ParallelOutcome:
    """Merged result of one subtree-sharded exploration."""

    decisions: Counter  #: decided-vector multiset (identical to serial)
    stats: EngineStats = field(default_factory=EngineStats)
    shards: int = 0  #: frontier prefixes dispatched
    pooled: bool = False  #: True when a process pool actually ran them


def default_shard_depth(n: int) -> int:
    """Shard depth giving roughly ``n**depth`` jobs: enough shards to load
    a small pool without drowning it in per-job machine rebuilds."""
    return 2 if n <= 3 else 3


#: Frontier-width ceiling: the walk stops deepening once it holds this
#: many prefixes, whatever ``shard_depth`` asked for.  The frontier keeps
#: one live machine per prefix, so an uncapped deep walk (``n**depth``
#: growth) would exhaust memory before a single job dispatched; capping
#: early just makes the shards bigger, which is always correct.
MAX_SHARDS = 4096


def shard_frontier(
    make_runtime,
    shard_depth: int,
    max_runs: int | None = None,
    max_shards: int = MAX_SHARDS,
) -> tuple[list[tuple[int, ...]], Counter, int]:
    """Walk the schedule tree to ``shard_depth`` (or the shard ceiling).

    Returns ``(prefixes, shallow_leaves, forks)``: the frontier's schedule
    prefixes, the decided-vector counts of runs that completed above the
    shard depth, and the number of forks the walk took.  Runs completing
    above the frontier count against ``max_runs`` as the walk finds them
    (matching the serial engine's early budget failure).
    """
    leaves: Counter = Counter()
    leaf_runs = 0
    forks = 0
    frontier: list[tuple[tuple[int, ...], object]] = [((), make_runtime())]
    for _ in range(shard_depth):
        if len(frontier) >= max_shards:
            break
        deeper: list[tuple[tuple[int, ...], object]] = []
        for prefix, machine in frontier:
            enabled = machine.enabled_pids()
            if not enabled:
                key = tuple(freeze_value(v) for v in machine.outputs)
                leaves[key] += 1
                leaf_runs += 1
                if max_runs is not None and leaf_runs > max_runs:
                    raise ExplorationBudgetExceeded(
                        f"exploration produced more than {max_runs} runs"
                    )
                continue
            last = len(enabled) - 1
            for index, pid in enumerate(enabled):
                if index == last:
                    child = machine
                else:
                    child = machine.fork()
                    forks += 1
                child.step(pid)
                deeper.append((prefix + (pid,), child))
        frontier = deeper
    return [prefix for prefix, _ in frontier], leaves, forks


#: Worker-side factory cache: one compiled step table per (spec, n) per
#: process, shared by every shard the pool lands on that worker — without
#: it each of the (often dozens of) shard jobs would re-trace the whole
#: table from generator replays.
_FACTORY_CACHE: dict[tuple[str, int], object] = {}


def _cached_spec_factory(name: str, n: int, table=None):
    key = (name, n)
    factory = _FACTORY_CACHE.get(key)
    if factory is None:
        factory = make_spec_machine(get_spec(name), n, frame_nodes=True)
        program = factory.program
        if table is not None:
            # Adopt the parent's pre-traced table; a structural mismatch
            # returns False and this process keeps its own lazy trace.
            program.import_table(table)
        _FACTORY_CACHE[key] = factory
    return factory


#: Worker globals, installed by the pool initializer (None in the parent
#: and in initializer-less pools): the shared orbit-memo adapter, the
#: orbit memo every shard on this worker shares, and the exchange
#: counters as last reported to the parent.
_WORKER_SHARED = None
_WORKER_MEMO: dict | None = None
_WORKER_REPORTED: dict | None = None


def _init_worker(
    name: str, n: int, table, ring_name: str | None, lock
) -> None:
    """Pool-worker initializer: seed the factory cache (adopting the
    parent's pre-traced table), start the worker's orbit memo and attach
    the shared orbit-memo ring."""
    global _WORKER_SHARED, _WORKER_MEMO, _WORKER_REPORTED
    _WORKER_SHARED = None
    _WORKER_MEMO = {}
    # Forked workers inherit the parent's counters: report from here on.
    _WORKER_REPORTED = share_counters()
    try:
        factory = _cached_spec_factory(name, n, table=table)
    except Exception:
        # A broken spec fails identically inside _subtree_job, where the
        # error reaches the parent attached to a shard instead of killing
        # the worker at startup.
        return
    if ring_name is not None and lock is not None:
        _WORKER_SHARED = attach_shared_memo(ring_name, lock, factory.program)


def _share_delta() -> dict:
    """This worker's exchange-counter delta since it last reported ({}
    outside pool workers, whose counters already are the caller's)."""
    global _WORKER_REPORTED
    if _WORKER_REPORTED is None:
        return {}
    now = share_counters()
    delta = {
        key: value - _WORKER_REPORTED.get(key, 0)
        for key, value in now.items()
        if value != _WORKER_REPORTED.get(key, 0)
    }
    _WORKER_REPORTED = now
    return delta


def _run_pooled(
    spec_name: str,
    n: int,
    prefixes: list[tuple[int, ...]],
    options: dict,
    jobs: int,
    outcomes: list,
    indices: list[int] | None = None,
    initargs: tuple | None = None,
) -> tuple[bool, object | None]:
    """Run shard jobs on a process pool, filling ``outcomes[indices[i]]``.

    Returns ``(pooled, registry_miss)``: ``pooled`` is False when no
    pool could start at all (executor-hostile sandbox — the caller runs
    everything serially and counts ``pool_unavailable``); each finished
    shard's exchange-counter delta is folded into this process's
    counters as it arrives; ``registry_miss`` is the
    unresolvable spec name when a worker raised ``KeyError`` — that
    failure is deterministic, so the caller warns and skips the retry.
    Individually failed shards simply stay ``None`` in ``outcomes``.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    indices = list(range(len(prefixes))) if indices is None else indices
    registry_miss = None
    pool_kwargs: dict = {"max_workers": jobs}
    if initargs is not None:
        pool_kwargs.update(initializer=_init_worker, initargs=initargs)
    try:
        with ProcessPoolExecutor(**pool_kwargs) as pool:
            futures = [
                pool.submit(_subtree_job, spec_name, n, prefix, options)
                for prefix in prefixes
            ]
            for index, future in zip(indices, futures):
                try:
                    counter, stats, share = future.result()
                except KeyError as error:
                    registry_miss = error.args[0] if error.args else error
                except (OSError, BrokenProcessPool):
                    pass  # this shard failed; the caller may retry it
                else:
                    fold_share_counters(share)
                    outcomes[index] = (counter, stats)
                    _PARALLEL_TOTALS["pooled_shards"] += 1
    except (OSError, BrokenProcessPool):
        return False, registry_miss
    return True, registry_miss


def _subtree_job(
    name: str,
    n: int,
    prefix: tuple[int, ...],
    options: dict,
    orbit_memo: dict | None = None,
) -> tuple[Counter, EngineStats, dict]:
    """Module-level worker: rebuild the machine, step the prefix, explore.

    Jobs are dispatched by registry name so the executor can spawn-start
    workers; an unregistered name raises :class:`KeyError` here, which the
    parent reports loudly before degrading to serial execution.
    ``orbit_memo`` lets the in-parent serial path share one orbit table
    across shards; a pool worker shares its own across the shards it
    runs, and with other workers through the ring.  Returns the shard's
    counter, its stats (``peak_stack`` counted from the tree's root, like
    the serial engine's) and the worker's exchange-counter delta.
    """
    factory = _cached_spec_factory(name, n)

    def make_subtree():
        machine = factory()
        for pid in prefix:
            machine.step(pid)
        return machine

    engine = PrefixSharingEngine(
        make_subtree,
        max_runs=options.get("max_runs"),
        max_depth=options.get("max_depth", 10_000),
        relabeler=get_spec(name).value_relabel,
        orbit_memo=_WORKER_MEMO if orbit_memo is None else orbit_memo,
        shared_memo=_WORKER_SHARED,
    )
    counter = engine.decided_vectors()
    engine.stats.peak_stack += len(prefix)
    return counter, engine.stats, _share_delta()


def explore_decided_parallel(
    spec_name: str,
    n: int,
    jobs: int,
    shard_depth: int | None = None,
    max_runs: int | None = None,
    max_depth: int = 10_000,
    stats: EngineStats | None = None,
    quotient: bool = True,
) -> ParallelOutcome:
    """Decided-vector multiset of one spec at one size, sharded subtree-wise.

    Equivalent to ``PrefixSharingEngine(...).decided_vectors()`` —
    the subtrees under the depth-``shard_depth`` frontier partition the
    run set — but each subtree explores on its own process.  ``jobs < 2``
    (or an executor-hostile sandbox) runs the same shards serially
    in-process, so results never depend on pool availability.

    Each shard memoizes over value-symmetry orbits; pool workers
    additionally exchange finished orbit entries through a shared-memory
    ring, and in-parent serial shards share one orbit table directly
    (every shard explores the same participant set, so sharing is sound).
    ``quotient`` must stay True: False (the removed exact state-key memo)
    raises :class:`ValueError`.

    The ``max_runs`` budget applies per shard *and* to the merged total of
    materialized runs, mirroring the serial semantics as closely as a
    partitioned search can.
    """
    _require_quotient(quotient)
    stats = stats if stats is not None else EngineStats()
    depth = default_shard_depth(n) if shard_depth is None else shard_depth
    if depth < 0:
        raise ValueError(f"shard depth must be >= 0, got {depth}")
    factory = _cached_spec_factory(spec_name, n)
    prefixes, shallow_leaves, forks = shard_frontier(
        factory, depth, max_runs=max_runs
    )
    _PARALLEL_TOTALS["explorations"] += 1
    _PARALLEL_TOTALS["shards"] += len(prefixes)
    local_runs = sum(shallow_leaves.values())
    stats.forks += forks
    stats.runs += local_runs
    total: Counter = Counter(shallow_leaves)
    options = {"max_runs": max_runs, "max_depth": max_depth}

    pooled = False
    outcomes: list[tuple[Counter, EngineStats] | None]
    outcomes = [None] * len(prefixes)
    ring = None
    initargs: tuple | None = None
    try:
        if jobs and jobs > 1 and prefixes:
            # Parent pre-trace: ship this process's step table (roots +
            # everything the frontier walk traced) to each worker once,
            # through the pool initializer.
            table = factory.program.export_table()
            ring_name = None
            lock = None
            if len(prefixes) > 1:
                try:
                    import multiprocessing as mp

                    from .memoshare import OrbitMemoRing

                    ring = OrbitMemoRing(create=True)
                    ring_name = ring.name
                    lock = mp.Lock()
                except Exception:
                    # No shared memory here (sandbox without /dev/shm):
                    # workers run with per-process memos only.
                    _PARALLEL_TOTALS["ring_unavailable"] += 1
                    ring = None
                    ring_name = None
                    lock = None
            initargs = (spec_name, n, table, ring_name, lock)
            pooled, registry_miss = _run_pooled(
                spec_name, n, prefixes, options, jobs, outcomes,
                initargs=initargs,
            )
            if not pooled:
                _PARALLEL_TOTALS["pool_unavailable"] += 1
            if registry_miss is not None:
                warnings.warn(
                    f"subtree-parallel exploration of {spec_name!r} fell "
                    f"back to serial: a pool worker could not resolve the "
                    f"spec from the registry ({registry_miss}); "
                    "register_spec must run at import time of a module the "
                    "workers also import",
                    RuntimeWarning,
                    stacklevel=2,
                )
            failed = [
                index for index, done in enumerate(outcomes) if done is None
            ]
            if pooled and failed and registry_miss is None:
                # One retry on a fresh pool: a transient worker death (OOM
                # kill, sandbox hiccup) should not instantly serialize the
                # whole exploration.
                _PARALLEL_TOTALS["shard_retries"] += len(failed)
                pooled, _ = _run_pooled(
                    spec_name,
                    n,
                    [prefixes[index] for index in failed],
                    options,
                    jobs,
                    outcomes,
                    indices=failed,
                    initargs=initargs,
                )
                if not pooled:
                    _PARALLEL_TOTALS["pool_unavailable"] += 1
                still = [i for i, done in enumerate(outcomes) if done is None]
                if still:
                    named = ", ".join(
                        f"#{i}{prefixes[i]!r}" for i in still[:8]
                    ) + ("..." if len(still) > 8 else "")
                    warnings.warn(
                        f"subtree-parallel exploration of {spec_name!r}: "
                        f"{len(still)} of {len(prefixes)} shards failed "
                        f"twice on the process pool ({named}); running "
                        "them serially in-process",
                        RuntimeWarning,
                        stacklevel=2,
                    )
        serial_memo: dict = {}
        for index, done in enumerate(outcomes):
            if done is None:
                counter, shard_stats, _ = _subtree_job(
                    spec_name, n, prefixes[index], options,
                    orbit_memo=serial_memo,
                )
                outcomes[index] = (counter, shard_stats)
    finally:
        if ring is not None:
            ring.close()
            ring.unlink()
    for counter, shard_stats in outcomes:
        total += counter
        local_runs += shard_stats.runs
        stats.merge(shard_stats)
    # Budget on *this* exploration's materialized runs — `stats` may be a
    # shared accumulator spanning several explorations.
    if max_runs is not None and local_runs > max_runs:
        raise ExplorationBudgetExceeded(
            f"exploration materialized more than {max_runs} runs across "
            f"{len(prefixes)} subtree shards"
        )
    return ParallelOutcome(
        decisions=total, stats=stats, shards=len(prefixes), pooled=pooled
    )
