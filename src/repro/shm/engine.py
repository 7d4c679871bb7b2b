"""Prefix-sharing exploration engine (the model-checking hot path).

The legacy explorer (:func:`repro.shm.explore.legacy_explore_interleavings`)
re-executes every run prefix from scratch: exploring the schedule tree of
an n-process protocol costs O(nodes x depth) full step re-executions,
which caps exhaustive checking at n <= 3.  This engine turns exploration
into a real search procedure over the compiled protocol core
(:mod:`repro.shm.compiled`):

* **Prefix sharing** — the schedule tree is walked with
  :meth:`MachineState.fork <repro.shm.compiled.MachineState.fork>`: at a
  branching configuration the live machine is copied once per extra
  branch (a few flat lists) instead of replaying the whole prefix per
  node.

* **Orbit memoization** — interleavings of independent operations commute
  into the same global state, and states that differ only in decided
  outputs, oracle arrival order or (for specs declaring interchangeable
  oracle values) a relabeling of those values share their entire future.
  :meth:`MachineState.orbit_key
  <repro.shm.compiled.MachineState.orbit_key>` signs that orbit; the
  memo stores each subtree's outcome once and re-fills it into every
  other state of the orbit, so counts stay exact (a
  partial-order-reduction-flavoured collapse, sound for the model's
  deterministic algorithms).

* **Symmetry canonicalization** — the model's algorithms are
  comparison-based and index-independent (Section 2.2; the harness checks
  both metamorphically), so participant subsets whose identity vectors are
  order-isomorphic produce identical decided-value multisets up to process
  relabelling.  With the default identity assignment ``1..n``, *every*
  size-s subset is order-isomorphic to ``{0..s-1}``: subset-closed
  exploration shrinks from 2^n - 1 subsets to n representatives, each
  weighted by its class size C(n, s).

* **Batching** — :func:`explore_many` runs a battery of named exploration
  tasks across a range of system sizes, optionally on a multiprocess
  executor (jobs are dispatched by registry name, so nothing unpicklable
  crosses the process boundary).

Single explorations can additionally shard their DFS frontier across a
process pool (:mod:`repro.shm.parallel`; ``jobs``/``shard_depth`` on
:func:`explore_one`).  The independent reference is the legacy explorer:
it runs the generator runtime (:class:`repro.shm.runtime.Runtime`, the
model's reference semantics) fresh per prefix, with no fork, memo or
step table to trust, and the differential suites pin this engine to it.
"""

from __future__ import annotations

import math
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence

from .compiled import LazyTable, ValueCanonicalizer
from .runtime import Algorithm, Runtime, RunResult, freeze_value


class ExplorationBudgetExceeded(RuntimeError):
    """Exploration hit ``max_runs``; results so far are incomplete."""


# -- process-wide orbit-memo counters, surfaced via core.cache_config so
# the quotient shows up in cache_stats() / the /stats endpoint like every
# other cache in the repo.
_ORBIT_TOTALS = {
    "explorations": 0,
    "orbits": 0,
    "orbit_hits": 0,
    "lex_pruned": 0,
}


def _orbit_totals() -> dict:
    return dict(_ORBIT_TOTALS)


def _orbit_totals_clear() -> None:
    for key in _ORBIT_TOTALS:
        _ORBIT_TOTALS[key] = 0


def _register_orbit_counters() -> None:
    from ..core.cache_config import register_counters

    try:
        register_counters(
            "engine.orbit_memo", _orbit_totals, _orbit_totals_clear
        )
    except ValueError:  # pragma: no cover - repeated registration on reload
        pass


_register_orbit_counters()


def _require_quotient(quotient: bool) -> None:
    if not quotient:
        raise ValueError(
            "quotient=False selected the exact state-key memo, which was "
            "removed: the orbit quotient is the only memo mode "
            "(legacy_explore_interleavings is the unmemoized reference)"
        )


@dataclass
class EngineStats:
    """Counters describing one exploration (observability + docs tables)."""

    nodes: int = 0  #: internal configurations expanded
    runs: int = 0  #: completed runs materialized (after memoization)
    forks: int = 0  #: runtime snapshots taken
    subsets_pruned: int = 0  #: participant subsets collapsed by symmetry
    peak_stack: int = 0  #: deepest DFS stack (memory high-water mark)
    orbits: int = 0  #: distinct value-symmetry orbits memoized
    orbit_hits: int = 0  #: subtrees served from the orbit memo
    lex_pruned: int = 0  #: branches pruned by the pre-fork orbit probe

    def merge(self, other: "EngineStats") -> None:
        self.nodes += other.nodes
        self.runs += other.runs
        self.forks += other.forks
        self.subsets_pruned += other.subsets_pruned
        self.peak_stack = max(self.peak_stack, other.peak_stack)
        self.orbits += other.orbits
        self.orbit_hits += other.orbit_hits
        self.lex_pruned += other.lex_pruned

    def to_json(self) -> dict:
        """Counter dict for the CLI's ``--json`` payloads."""
        return {
            "nodes": self.nodes,
            "runs": self.runs,
            "forks": self.forks,
            "subsets_pruned": self.subsets_pruned,
            "peak_stack": self.peak_stack,
            "orbits": self.orbits,
            "orbit_hits": self.orbit_hits,
            "lex_pruned": self.lex_pruned,
        }


class PrefixSharingEngine:
    """Explore every interleaving of one system via fork-at-decision-point.

    Args:
        make_runtime: factory producing a fresh compiled-core
            :class:`~repro.shm.compiled.MachineState`; called once per
            exploration (the engine forks from it, it is *not* re-invoked
            per prefix).  The machine's scheduler is ignored.
        participants: pids allowed to take steps (others crash before
            their first step); defaults to all processes.
        max_runs: raise :class:`ExplorationBudgetExceeded` beyond this many
            *materialized* runs — every completed run for :meth:`runs`;
            for :meth:`decided_vectors` only leaves actually visited
            (logical runs served from the memo are free, which is the
            point of the budget: it bounds work, and memoization does less
            of it).
        max_depth: per-run step bound (guards against non-termination).
        stats: optional shared :class:`EngineStats` to accumulate into.
        quotient: must stay True — the orbit quotient is the only memo
            mode; False (the removed exact state-key memo) raises
            :class:`ValueError`.
        relabeler: the spec's declared value-relabeling group
            (:attr:`ExplorationSpec.value_relabel`); None means only the
            relabeling-free orbit refinements apply.
        orbit_memo: optional externally shared orbit-memo dict.  Sharing
            is sound only between explorations of the **same participant
            set** (orbit keys do not encode ``participants``) — the
            subtree-sharding path satisfies this, subset sweeps must not.
        shared_memo: optional cross-process orbit exchange exposing
            ``get(key)`` / ``offer(key, entry)``
            (:class:`repro.shm.memoshare.SharedOrbitMemo`).
    """

    def __init__(
        self,
        make_runtime: Callable[[], Any],
        participants: Sequence[int] | None = None,
        max_runs: int | None = None,
        max_depth: int = 10_000,
        stats: EngineStats | None = None,
        quotient: bool = True,
        relabeler: Any = None,
        orbit_memo: dict | None = None,
        shared_memo: Any = None,
    ):
        _require_quotient(quotient)
        self._make = make_runtime
        self.participants = (
            None if participants is None else frozenset(participants)
        )
        self.max_runs = max_runs
        self.max_depth = max_depth
        self.stats = stats if stats is not None else EngineStats()
        self.relabeler = relabeler
        self.orbit_memo = orbit_memo
        self.shared_memo = shared_memo

    # ------------------------------------------------------------------
    # Every run, materialized
    # ------------------------------------------------------------------

    def runs(self) -> Iterator[RunResult]:
        """Yield every interleaving's :class:`RunResult`.

        Equivalent to the legacy explorer — same runs, same lexicographic
        (by pid) order — but each branch point costs one fork instead of a
        full prefix re-execution.
        """
        produced = 0
        root = self._make_root()
        allowed = self._allowed(root)
        self._check_depth(root)
        enabled = self._enabled(root, allowed)
        if not enabled:
            self.stats.runs += 1
            yield root.result()
            return
        self.stats.nodes += 1
        # Frames are [runtime, enabled pids, next branch index]; reaching
        # the last branch reuses the frame's runtime instead of forking.
        stack: list[list[Any]] = [[root, enabled, 0]]
        while stack:
            frame = stack[-1]
            runtime, branches, index = frame
            if index == len(branches):
                stack.pop()
                continue
            frame[2] += 1
            if frame[2] == len(branches):
                child = runtime
            else:
                child = runtime.fork()
                self.stats.forks += 1
            child.step(branches[index])
            self._check_depth(child)
            child_enabled = self._enabled(child, allowed)
            if not child_enabled:
                produced += 1
                if self.max_runs is not None and produced > self.max_runs:
                    raise ExplorationBudgetExceeded(
                        f"exploration produced more than {self.max_runs} runs"
                    )
                self.stats.runs += 1
                yield child.result()
                continue
            self.stats.nodes += 1
            stack.append([child, child_enabled, 0])
            self.stats.peak_stack = max(self.stats.peak_stack, len(stack))

    # ------------------------------------------------------------------
    # Orbit-memoized decided-vector counting
    # ------------------------------------------------------------------

    def decided_vectors(self) -> Counter:
        """Multiset of decided output vectors over all interleavings.

        Returns a :class:`collections.Counter` mapping the (frozen) tuple
        of per-pid outputs of each completed run to the number of
        interleavings producing it — exactly the multiset the legacy
        explorer's ``RunResult.outputs`` induce, but computed with subtree
        memoization over value-symmetry **orbits**
        (:meth:`MachineState.orbit_key
        <repro.shm.compiled.MachineState.orbit_key>`):

        * memo entries are ``(positions, suffix counts)`` keyed by orbit —
          ``positions`` is the frame's undecided (enabled ∩ allowed) pid
          tuple, and the suffix counts carry only those positions' decided
          values; the decided prefix is constant under a frame, so the
          projection is lossless, and a hit re-fills the suffix over the
          *querying* state's outputs.  Counts are preserved because the
          re-filled counter is *added* once per arrival path;
        * with a declared relabeler, keys are canonicalized
          (:class:`~repro.shm.compiled.ValueCanonicalizer`) and suffixes
          are stored in the canonical frame — forward-mapped on store,
          inverse-mapped on hit;
        * every branch is probed before it is forked
          (:meth:`~repro.shm.compiled.MachineState.probe`): the
          successor's (canonical) orbit key is computed structurally from
          the step table, and a memo hit is served before paying for the
          fork + step (counted as ``lex_pruned``: the branch is subsumed
          by the orbit representative explored earlier in the engine's
          lexicographic order).  On a miss the key and inverse already
          computed go to the frame the real step opens.

        The differential suites pin the Counter to the legacy explorer's.
        """
        produced = 0
        memo: dict[Any, tuple] = (
            self.orbit_memo if self.orbit_memo is not None else {}
        )
        shared = self.shared_memo
        root = self._make_root()
        allowed = self._allowed(root)
        self._check_depth(root)

        relabeler = self.relabeler
        canon = None
        if relabeler is not None:
            program = root.program
            canon = getattr(program, "_engine_canonicalizer", None)
            if canon is None or canon.relabel is not relabeler:
                canon = ValueCanonicalizer(program, relabeler)
                # Cache on the shared program: canonical-node routing is
                # reusable across every exploration of this step table.
                program._engine_canonicalizer = canon
        still = root.STILL_RUNNING
        max_runs = self.max_runs
        max_depth = self.max_depth
        # With the full participant set (the common case) the per-node
        # allowed-filter over enabled pids is a no-op: skip it.
        full_set = len(allowed) == root.n

        # Hot-loop counters stay locals; folded into stats in `finally`.
        nodes_l = runs_l = forks_l = hits_l = orbits_l = lex_l = peak_l = 0

        # Accumulators are plain dicts, not Counters: Counter.__iadd__
        # rescans the whole accumulator for positivity on every merge,
        # which dominates the hot loop (counts here are never negative).
        def leaf_into(acc: dict, machine) -> None:
            nonlocal produced, runs_l
            produced += 1
            if max_runs is not None and produced > max_runs:
                raise ExplorationBudgetExceeded(
                    f"exploration produced more than {max_runs} runs"
                )
            runs_l += 1
            full = tuple(freeze_value(v) for v in machine.outputs)
            acc[full] = acc.get(full, 0) + 1

        def lookup(key):
            entry = memo.get(key)
            if entry is None and shared is not None:
                entry = shared.get(key)
                if entry is not None:
                    memo[key] = entry
            return entry

        n = root.n

        def picker(positions: tuple) -> Callable:
            """Getter building a full output vector from ``base + suffix``:
            the suffix's slots replace the base at ``positions``."""
            where = list(range(n))
            for slot, pos in enumerate(positions):
                where[pos] = n + slot
            if n == 1:
                return lambda row: (row[where[0]],)
            return itemgetter(*where)

        def projector(positions: tuple) -> Callable:
            """Getter of the suffix at ``positions`` of a full vector."""
            if len(positions) == 1:
                pos = positions[0]
                return lambda full: (full[pos],)
            return itemgetter(*positions)

        pickers = LazyTable(picker)
        projectors = LazyTable(projector)

        def fill_into(acc, machine, entry, inverse, override_pid, override_value):
            """Replay a memoized suffix counter into this state's frame."""
            positions, suffixes = entry
            if override_pid is None:
                base = tuple(machine.outputs)
            else:
                base = machine.outputs.copy()
                base[override_pid] = override_value
                base = tuple(base)
            pick = pickers[positions]
            get = acc.get
            if inverse:
                relabeled = inverse.outputs
                for suffix, count in suffixes.items():
                    full = pick(base + relabeled[suffix])
                    acc[full] = get(full, 0) + count
            else:
                for suffix, count in suffixes.items():
                    full = pick(base + suffix)
                    acc[full] = get(full, 0) + count

        total: dict = {}
        stack: list[list[Any]] = []
        _unset = object()

        # Frames: [machine, branches, index, acc, key, forward, positions].
        def open_frame(machine, branches, key, inverse, into: dict) -> bool:
            """Serve ``machine`` from the memo into ``into`` (False), or
            push its frame (True).  ``key`` is the (canonical) orbit key
            when the probe already computed it, else ``_unset``."""
            nonlocal nodes_l, hits_l, peak_l
            if key is _unset:
                if canon is not None:
                    key, inverse = canon.canonical(machine)
                else:
                    key = machine.orbit_key()
            if key is not None:
                entry = lookup(key)
                if entry is not None:
                    hits_l += 1
                    fill_into(into, machine, entry, inverse, None, None)
                    return False
            forward = inverse.inverse if inverse else None
            nodes_l += 1
            stack.append(
                [machine, branches, 0, {}, key, forward, tuple(branches)]
            )
            if len(stack) > peak_l:
                peak_l = len(stack)
            return True

        probe = type(root).probe
        canonical_probe = None if canon is None else canon.canonical_probe
        try:
            enabled = self._enabled(root, allowed)
            if not enabled:
                leaf_into(total, root)
                return Counter(total)
            open_frame(root, enabled, _unset, None, total)
            while stack:
                frame = stack[-1]
                machine, branches, index, acc = frame[:4]
                last = len(branches)
                while index < last:
                    pid = branches[index]
                    index += 1
                    pkey = _unset
                    inverse = None
                    parts = probe(machine, pid)
                    # A step that decides the frame's last undecided
                    # process ends the run: leaves are never memoized, so
                    # skip the key.
                    if parts is not None and (parts[3] is still or last > 1):
                        if canonical_probe is None:
                            pkey = (parts[0], parts[1], parts[2], ())
                        else:
                            pkey, inverse = canonical_probe(machine, parts)
                        entry = lookup(pkey)
                        if entry is not None:
                            hits_l += 1
                            lex_l += 1
                            if parts[3] is still:
                                fill_into(
                                    acc, machine, entry, inverse, None, None
                                )
                            else:
                                fill_into(
                                    acc, machine, entry, inverse, pid, parts[3]
                                )
                            continue
                    if index == last:
                        child = machine
                    else:
                        child = machine.fork()
                        forks_l += 1
                    child.step(pid)
                    if child.step_count > max_depth:
                        self._check_depth(child)
                    if full_set:
                        child_enabled = child.enabled_pids()
                    else:
                        child_enabled = [
                            p for p in child.enabled_pids() if p in allowed
                        ]
                    if not child_enabled:
                        leaf_into(acc, child)
                    elif open_frame(child, child_enabled, pkey, inverse, acc):
                        break  # descend; this frame resumes at `index`
                else:
                    # Every branch is done: memoize the frame, merge it up.
                    key = frame[4]
                    if key is not None:
                        positions = frame[6]
                        forward = frame[5]
                        project = projectors[positions]
                        suffixes: dict = {}
                        get = suffixes.get
                        if forward:
                            relabeled = forward.outputs
                            for full, count in acc.items():
                                suffix = relabeled[project(full)]
                                suffixes[suffix] = get(suffix, 0) + count
                        else:
                            for full, count in acc.items():
                                suffix = project(full)
                                suffixes[suffix] = get(suffix, 0) + count
                        entry = (positions, suffixes)
                        memo[key] = entry
                        orbits_l += 1
                        if shared is not None:
                            shared.offer(key, entry)
                    stack.pop()
                    into = stack[-1][3] if stack else total
                    get = into.get
                    for full, count in acc.items():
                        into[full] = get(full, 0) + count
                    continue
                frame[2] = index
            return Counter(total)
        finally:
            stats = self.stats
            stats.nodes += nodes_l
            stats.runs += runs_l
            stats.forks += forks_l
            stats.orbits += orbits_l
            stats.orbit_hits += hits_l
            stats.lex_pruned += lex_l
            stats.peak_stack = max(stats.peak_stack, peak_l)
            _ORBIT_TOTALS["explorations"] += 1
            _ORBIT_TOTALS["orbits"] += orbits_l
            _ORBIT_TOTALS["orbit_hits"] += hits_l
            _ORBIT_TOTALS["lex_pruned"] += lex_l

    # ------------------------------------------------------------------

    def _make_root(self):
        root = self._make()
        if not hasattr(root, "orbit_key"):
            raise TypeError(
                f"{type(root).__name__} is not a compiled-core machine: the "
                "engine explores MachineState factories (make_spec_machine, "
                "CompiledProtocol.machine); the generator Runtime is "
                "explored by legacy_explore_interleavings"
            )
        return root

    def _allowed(self, machine) -> frozenset[int]:
        if self.participants is None:
            return frozenset(range(machine.n))
        return self.participants

    def _enabled(self, machine, allowed: frozenset[int]) -> list[int]:
        return [pid for pid in machine.enabled_pids() if pid in allowed]

    def _check_depth(self, machine) -> None:
        if machine.step_count > self.max_depth:
            raise ExplorationBudgetExceeded(
                f"run prefix exceeded {self.max_depth} steps; "
                "non-terminating protocol?"
            )


# ----------------------------------------------------------------------
# Symmetry canonicalization of participant subsets
# ----------------------------------------------------------------------

def order_isomorphism_class(identities: Sequence[int]) -> tuple[int, ...]:
    """The rank pattern of an identity vector (its order-isomorphism class).

    Comparison-based algorithms behave identically on order-isomorphic
    identity vectors, so this tuple is the canonical representative used to
    deduplicate identity assignments and participant subsets.
    """
    ranks = {identity: rank for rank, identity in enumerate(sorted(identities))}
    return tuple(ranks[identity] for identity in identities)


def canonical_participant_classes(
    n: int, min_participants: int = 1
) -> list[tuple[tuple[int, ...], int]]:
    """Representative participant subsets with their symmetry-class sizes.

    With the default identity assignment ``1..n`` every size-s subset has
    an order-isomorphic (ascending) identity vector, so one representative
    ``(0, .., s-1)`` stands for all C(n, s) subsets.  Sound only for
    comparison-based, index-independent algorithms whose decisions are
    abstract task values (the GSB values in ``[1..m]``) — decisions that
    embed raw identities or pids are *not* invariant across the class.
    The model's discipline mandates all three properties (Section 2.2; the
    harness checks them independently).
    """
    return [
        (tuple(range(size)), math.comb(n, size))
        for size in range(min_participants, n + 1)
    ]


@dataclass
class SubsetDecisionProfile:
    """Decided-vector multisets across participant subsets.

    ``by_subset`` maps each explored subset to the Counter of decided
    output vectors of its runs; ``weights`` carries the number of subsets
    each explored representative stands for (1 unless symmetry pruning
    collapsed a class).
    """

    n: int
    by_subset: dict[tuple[int, ...], Counter] = field(default_factory=dict)
    weights: dict[tuple[int, ...], int] = field(default_factory=dict)
    stats: EngineStats = field(default_factory=EngineStats)

    def value_multisets(self) -> Counter:
        """Weighted Counter of decided *value multisets* (sorted tuples).

        Process positions are dropped, which is the level at which
        symmetry-pruned subsets are exchangeable — and the level at which
        GSB legality is defined (occupancy bounds only see the multiset).
        """
        aggregated: Counter = Counter()
        for subset, decisions in self.by_subset.items():
            weight = self.weights.get(subset, 1)
            for outputs, count in decisions.items():
                # Sort by repr: decision values need not be mutually
                # comparable (e.g. tuples containing None), and only a
                # canonical multiset ordering is needed here.
                values = tuple(
                    sorted(
                        (v for v in outputs if v is not None), key=repr
                    )
                )
                aggregated[values] += weight * count
        return aggregated

    @property
    def total_runs(self) -> int:
        return sum(
            self.weights.get(subset, 1) * sum(decisions.values())
            for subset, decisions in self.by_subset.items()
        )


def explore_decided_subsets(
    make_runtime: Callable[[], Any],
    min_participants: int = 1,
    assume_symmetric: bool = True,
    max_runs: int | None = None,
    max_depth: int = 10_000,
    value_relabel: Any = None,
) -> SubsetDecisionProfile:
    """Decided-vector profile over every participant subset.

    With ``assume_symmetric`` (the model's default discipline) only one
    representative subset per size is explored and its results are weighted
    by the class size; otherwise all ``2^n - 1`` subsets run.

    Each subset's engine keeps its *own* orbit memo: orbit keys do not
    encode the participant set, so sharing one table across subsets would
    conflate their suffix positions.
    """
    probe = make_runtime()
    n = probe.n
    profile = SubsetDecisionProfile(n=n)
    if assume_symmetric:
        classes = canonical_participant_classes(n, min_participants)
        profile.stats.subsets_pruned = sum(
            weight - 1 for _, weight in classes
        )
    else:
        import itertools

        classes = [
            (subset, 1)
            for size in range(min_participants, n + 1)
            for subset in itertools.combinations(range(n), size)
        ]
    for subset, weight in classes:
        engine = PrefixSharingEngine(
            make_runtime,
            participants=subset,
            max_runs=max_runs,
            max_depth=max_depth,
            stats=profile.stats,
            relabeler=value_relabel,
        )
        profile.by_subset[subset] = engine.decided_vectors()
        profile.weights[subset] = weight
    return profile


# ----------------------------------------------------------------------
# Named exploration tasks (the batch API's registry)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExplorationSpec:
    """A named, parameterized exploration workload.

    The three factories take the system size ``n``; ``task_factory`` builds
    the task specification decided vectors are validated against,
    ``algorithm_factory`` the protocol, and ``system_factory`` a per-run
    system factory (arrays + oracle objects) — deterministic, so that
    exploration is reproducible.
    """

    name: str
    description: str
    task_factory: Callable[[int], Any]
    algorithm_factory: Callable[[int], Algorithm]
    system_factory: Callable[[int], Callable[[], tuple[dict, dict]]]
    min_n: int = 2
    #: ``"pinned"`` (default): oracle values feed arithmetic or carry
    #: semantics — only the relabeling-free orbit refinements apply.
    #: ``"interchangeable"``: values are compared for equality only;
    #: ``value_relabel`` then carries the relabeler the canonicalizer
    #: drives (see :class:`SlotValueRelabeler`).  Declaring a spec
    #: interchangeable when its algorithm computes *with* the values is
    #: unsound; the n<=3 differential suite is the arbiter.
    value_symmetry: str = "pinned"
    value_relabel: Any = None


_SPEC_REGISTRY: dict[str, ExplorationSpec] = {}


def register_spec(spec: ExplorationSpec) -> ExplorationSpec:
    """Add a spec to the registry (overwrites an existing name)."""
    _SPEC_REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> ExplorationSpec:
    if name not in _SPEC_REGISTRY:
        raise KeyError(
            f"unknown exploration task {name!r}; "
            f"registered: {sorted(_SPEC_REGISTRY)}"
        )
    return _SPEC_REGISTRY[name]


def available_specs() -> list[str]:
    return sorted(_SPEC_REGISTRY)


# -- built-in specs.  Factories import lazily (engine sits below
# repro.algorithms in the layer order) and are module-level functions so a
# multiprocess executor can rebuild them from the registry name alone.

def _wsb_task(n: int):
    from ..core.named import weak_symmetry_breaking

    return weak_symmetry_breaking(n)


def _wsb_algorithm(n: int) -> Algorithm:
    from ..algorithms.wsb import wsb_from_renaming

    return wsb_from_renaming()


def _wsb_system(n: int) -> Callable[[], tuple[dict, dict]]:
    from ..algorithms.wsb import RENAMING_OBJECT
    from ..core.named import renaming
    from .oracles import GSBOracle, LexMinStrategy

    def factory() -> tuple[dict, dict]:
        oracle = GSBOracle(renaming(n, 2 * n - 2), strategy=LexMinStrategy())
        return {}, {RENAMING_OBJECT: oracle}

    return factory


def _election_task(n: int):
    from ..core.named import election

    return election(n)


def _election_candidate(ctx):
    """A natural — necessarily incorrect (Theorem 11) — election attempt.

    Write your identity, snapshot, claim leadership iff yours is the
    largest identity visible.  Exploration finds the interleavings where
    two processes each see only themselves and both elect themselves:
    model checking *refuting* a candidate protocol is the workload here.
    """
    yield _write("BALLOT", ctx.identity)
    view = yield _snapshot("BALLOT")
    seen = [identity for identity in view if identity is not None]
    return 1 if ctx.identity == max(seen) else 2


def _election_algorithm(n: int) -> Algorithm:
    return _election_candidate


def _election_system(n: int) -> Callable[[], tuple[dict, dict]]:
    def factory() -> tuple[dict, dict]:
        return {"BALLOT": None}, {}

    return factory


def _renaming_task(n: int):
    from ..core.named import renaming

    return renaming(n, n + 1)


def _renaming_algorithm(n: int) -> Algorithm:
    from ..algorithms.figure2 import figure2_renaming

    return figure2_renaming()


def _renaming_system(n: int) -> Callable[[], tuple[dict, dict]]:
    from ..algorithms.figure2 import KS_OBJECT, STATE_ARRAY
    from ..core.named import k_slot
    from .oracles import GSBOracle, LexMinStrategy

    def factory() -> tuple[dict, dict]:
        oracle = GSBOracle(k_slot(n, n - 1), strategy=LexMinStrategy())
        return {STATE_ARRAY: None}, {KS_OBJECT: oracle}

    return factory


def _wsb_grh_task(n: int):
    from ..core.named import renaming

    return renaming(n, 2 * n - 2)


def _wsb_grh_algorithm(n: int) -> Algorithm:
    from ..algorithms.wsb import renaming_2n2_from_wsb

    return renaming_2n2_from_wsb()


def _wsb_grh_system(n: int) -> Callable[[], tuple[dict, dict]]:
    from ..algorithms.wsb import DOWN_ARRAY, UP_ARRAY, WSB_OBJECT
    from ..core.named import weak_symmetry_breaking
    from .oracles import GSBOracle, LexMinStrategy

    def factory() -> tuple[dict, dict]:
        oracle = GSBOracle(
            weak_symmetry_breaking(n), strategy=LexMinStrategy()
        )
        return {UP_ARRAY: None, DOWN_ARRAY: None}, {WSB_OBJECT: oracle}

    return factory


def _write(array: str, value):
    from .ops import Write

    return Write(array, value)


def _snapshot(array: str):
    from .ops import Snapshot

    return Snapshot(array)


class SlotValueRelabeler:
    """Value relabeler for Figure 2's renaming: KS slots are nominal.

    ``figure2_renaming`` only ever *writes* its acquired slot and compares
    slot fields for equality (via cell occupancy) — no arithmetic, no
    ordering — so any permutation of the slot values maps runs to runs.
    Cells are ``(slot, identity)`` pairs (identities stay pinned), Invoke
    results are slots, Snapshot results are cell tuples, and decided
    outputs in ``1..n-1`` are slots while the fallback names ``n``/``n+1``
    are fixed points of every permutation the canonicalizer builds (it
    only permutes values the oracle handed out).

    Contrast ``wsb``/``wsb-grh``: their adaptive renaming *computes* with
    acquired names (``_nth_free_name`` rank arithmetic over the snapshot),
    so a name permutation does not commute with the algorithm — e.g. with
    names {1,3} taken, swapping 1 and 3 changes which name is "first
    free".  Those specs stay ``pinned``.
    """

    def __init__(self, oracle: str):
        self.oracle = oracle

    def cell_values(self, cell) -> tuple:
        """Oracle values stored in one (frozen) cell."""
        return () if cell is None else (cell[0],)

    def map_cell(self, cell, mapping):
        if cell is None:
            return None
        slot, identity = cell
        return (mapping.get(slot, slot), identity)

    def result_values(self, op, result) -> tuple:
        """Oracle values a process *retains* from one operation result."""
        from .ops import Invoke, Snapshot

        if isinstance(op, Invoke):
            return (result,)
        if isinstance(op, Snapshot):
            return tuple(
                cell[0] for cell in result if cell is not None
            )
        return ()

    def map_result(self, op, result, mapping):
        """The operation result as it would read under the relabeling.

        Must return a value usable as a step-table edge key (same
        freezing as the original result).
        """
        from .ops import Invoke, Snapshot

        if isinstance(op, Invoke):
            return mapping.get(result, result)
        if isinstance(op, Snapshot):
            return tuple(self.map_cell(cell, mapping) for cell in result)
        return result

    def map_output(self, value, mapping):
        return mapping.get(value, value)


register_spec(
    ExplorationSpec(
        name="wsb",
        description="WSB from a (2n-2)-renaming oracle (decide name parity)",
        task_factory=_wsb_task,
        algorithm_factory=_wsb_algorithm,
        system_factory=_wsb_system,
    )
)
register_spec(
    ExplorationSpec(
        name="election",
        description="candidate election protocol refuted by model checking",
        task_factory=_election_task,
        algorithm_factory=_election_algorithm,
        system_factory=_election_system,
    )
)
register_spec(
    ExplorationSpec(
        name="wsb-grh",
        description=(
            "GRH direction: (2n-2)-renaming from a WSB oracle via two-sided "
            "adaptive snapshot renaming (register-contention-heavy)"
        ),
        task_factory=_wsb_grh_task,
        algorithm_factory=_wsb_grh_algorithm,
        system_factory=_wsb_grh_system,
    )
)
register_spec(
    ExplorationSpec(
        name="renaming",
        description="Figure 2: (n+1)-renaming from an (n-1)-slot oracle",
        task_factory=_renaming_task,
        algorithm_factory=_renaming_algorithm,
        system_factory=_renaming_system,
        value_symmetry="interchangeable",
        value_relabel=SlotValueRelabeler(oracle="KS"),
    )
)


# ----------------------------------------------------------------------
# Batched exploration
# ----------------------------------------------------------------------

@dataclass
class BatchResult:
    """Outcome of exploring one (task, n) cell of a batch."""

    name: str
    n: int
    runs: int  #: completed runs (logical, i.e. post-memoization multiset size)
    distinct: int  #: distinct decided output vectors
    violations: int  #: runs whose decided vector is illegal for the task
    seconds: float
    stats: EngineStats
    shards: int = 0  #: subtree shards (0 = one serial exploration)

    def __str__(self) -> str:
        status = "OK" if self.violations == 0 else f"{self.violations} ILLEGAL"
        return (
            f"{self.name:<10} n={self.n}  runs={self.runs:<8} "
            f"distinct={self.distinct:<5} orbit_hits={self.stats.orbit_hits:<7} "
            f"forks={self.stats.forks:<7} {self.seconds*1000:8.1f} ms  {status}"
        )

    def to_json(self) -> dict:
        """JSON payload row for the CLI's uniform ``--json`` contract."""
        return {
            "name": self.name,
            "n": self.n,
            "runs": self.runs,
            "distinct": self.distinct,
            "violations": self.violations,
            "seconds": self.seconds,
            "shards": self.shards,
            "stats": self.stats.to_json(),
        }


def make_spec_runtime(spec: ExplorationSpec, n: int) -> Callable[[], Runtime]:
    """Generator :class:`Runtime` factory for one spec (identities ``1..n``):
    the reference semantics :func:`repro.shm.explore.legacy_explore_interleavings`
    explores."""
    from .schedulers import RoundRobinScheduler

    algorithm = spec.algorithm_factory(n)
    system_factory = spec.system_factory(n)

    def make_runtime() -> Runtime:
        arrays, objects = system_factory()
        return Runtime(
            algorithm,
            list(range(1, n + 1)),
            RoundRobinScheduler(),  # unused by the engine
            arrays=arrays,
            objects=objects,
        )

    return make_runtime


def make_spec_machine(
    spec: ExplorationSpec,
    n: int,
    record_trace: bool = False,
    frame_nodes: bool = False,
) -> Callable[[], Any]:
    """Compiled-core machine factory for one spec (identities ``1..n``).

    The step table (:class:`repro.shm.compiled.CompiledProtocol`) is
    compiled once per factory and shared by every machine (and fork) it
    produces — the point of the compiled core: the per-exploration cost of
    understanding the algorithm is paid once, after which forks are array
    copies and state keys are packed tuples.  The shared program is
    exposed as ``factory.program`` (the parallel path exports it to pool
    workers).  ``frame_nodes`` turns on local-state node merging in the
    step table (the quotient's history → local-state collapse).
    """
    from .compiled import CompiledProtocol

    algorithm = spec.algorithm_factory(n)
    system_factory = spec.system_factory(n)
    probe_arrays, probe_objects = system_factory()
    program = CompiledProtocol(
        algorithm,
        range(1, n + 1),
        arrays=probe_arrays,
        objects=probe_objects,
        frame_nodes=frame_nodes,
    )

    def make_machine():
        arrays, objects = system_factory()
        return program.machine(
            arrays=arrays, objects=objects, record_trace=record_trace
        )

    make_machine.program = program
    return make_machine


def explore_one(
    spec: ExplorationSpec | str,
    n: int,
    max_runs: int | None = None,
    max_depth: int = 10_000,
    jobs: int = 0,
    shard_depth: int | None = None,
) -> BatchResult:
    """Explore one spec at one size and validate its decided vectors.

    Args:
        jobs: with ``jobs >= 2`` the DFS frontier is sharded at
            ``shard_depth`` across a process pool
            (:func:`repro.shm.parallel.explore_decided_parallel`) —
            requires a registry-resolvable spec name.
        shard_depth: frontier depth for the parallel path (default:
            :func:`repro.shm.parallel.default_shard_depth`).
    """
    if isinstance(spec, str):
        spec = get_spec(spec)
    if n < spec.min_n:
        raise ValueError(f"{spec.name} needs n >= {spec.min_n}, got {n}")

    parallel = jobs >= 2 or shard_depth is not None
    if parallel and (
        spec.name not in _SPEC_REGISTRY or _SPEC_REGISTRY[spec.name] is not spec
    ):
        warnings.warn(
            f"subtree-parallel exploration needs a registry-resolvable "
            f"spec; {spec.name!r} is not (or not identically) registered — "
            "falling back to one serial exploration",
            RuntimeWarning,
            stacklevel=2,
        )
        parallel = False

    stats = EngineStats()
    shards = 0
    started = time.perf_counter()
    if parallel:
        from .parallel import explore_decided_parallel

        outcome = explore_decided_parallel(
            spec.name,
            n,
            jobs=jobs,
            shard_depth=shard_depth,
            max_runs=max_runs,
            max_depth=max_depth,
            stats=stats,
        )
        decisions = outcome.decisions
        shards = outcome.shards
    else:
        engine = PrefixSharingEngine(
            make_spec_machine(spec, n, frame_nodes=True),
            max_runs=max_runs,
            max_depth=max_depth,
            stats=stats,
            relabeler=spec.value_relabel,
        )
        decisions = engine.decided_vectors()
    seconds = time.perf_counter() - started
    runs, distinct, violations = decision_summary(spec, n, decisions)
    return BatchResult(
        name=spec.name,
        n=n,
        runs=runs,
        distinct=distinct,
        violations=violations,
        seconds=seconds,
        stats=stats,
        shards=shards,
    )


def decision_summary(
    spec: ExplorationSpec, n: int, decisions: Counter
) -> tuple[int, int, int]:
    """``(runs, distinct vectors, illegal runs)`` of a decided-vector
    multiset, validated against the spec's task (identities ``1..n``)."""
    task = spec.task_factory(n)
    identities = list(range(1, n + 1))
    violations = sum(
        count
        for outputs, count in decisions.items()
        if not task.is_legal_output(list(outputs), identities)
    )
    return sum(decisions.values()), len(decisions), violations


def _explore_job(name: str, n: int, options: dict) -> BatchResult:
    """Module-level worker for the multiprocess executor (picklable args)."""
    return explore_one(get_spec(name), n, **options)


def explore_many(
    tasks: Sequence[ExplorationSpec | str],
    n_range: Sequence[int],
    executor: str | None = None,
    max_workers: int | None = None,
    max_runs: int | None = None,
    max_depth: int = 10_000,
    subtree_jobs: int = 0,
    shard_depth: int | None = None,
) -> list[BatchResult]:
    """Explore a battery of tasks across system sizes.

    Args:
        tasks: registry names or :class:`ExplorationSpec` objects.
        n_range: system sizes; each (task, n) pair is one job.  Sizes below
            a spec's ``min_n`` are skipped.
        executor: ``"process"`` fans whole (task, n) jobs out on a
            :class:`concurrent.futures.ProcessPoolExecutor` — only jobs
            named via the registry can cross the process boundary, any
            others (and any executor failure) fall back to serial.
        subtree_jobs / shard_depth: with ``subtree_jobs >= 2`` each
            exploration shards its own DFS frontier at ``shard_depth``
            instead (:mod:`repro.shm.parallel`); mutually exclusive with
            ``executor="process"`` (pools do not nest — the per-cell
            executor is ignored in that case).
        max_workers / max_runs / max_depth: passed through.
    """
    options = {"max_runs": max_runs, "max_depth": max_depth}
    jobs: list[tuple[ExplorationSpec | str, int]] = []
    for spec in tasks:
        resolved = get_spec(spec) if isinstance(spec, str) else spec
        for n in n_range:
            if n >= resolved.min_n:
                jobs.append((spec, n))

    if subtree_jobs >= 2 or shard_depth is not None:
        # shard_depth alone still shards (serial shards when the worker
        # count is < 2), so the reported shard coverage is always real.
        return [
            explore_one(
                spec, n, jobs=subtree_jobs, shard_depth=shard_depth, **options
            )
            for spec, n in jobs
        ]

    if executor == "process":
        named = [(spec, n) for spec, n in jobs if isinstance(spec, str)]
        if len(named) == len(jobs):
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            try:
                with ProcessPoolExecutor(max_workers=max_workers) as pool:
                    futures = [
                        pool.submit(_explore_job, spec, n, options)
                        for spec, n in named
                    ]
                    return [future.result() for future in futures]
            except (OSError, BrokenProcessPool):
                # Degrade to serial silently only for *infrastructure*
                # failures: sandboxes that forbid subprocesses.  Real
                # exploration errors (budget, protocol, oracle misuse)
                # propagate.
                pass
            except KeyError as error:
                # A pool worker could not resolve a spec from its own
                # registry (spawn-start children only see register_spec
                # calls made at import time of modules they import too).
                # The serial fallback below will still work — the parent
                # *can* resolve the name — but degrade loudly: silent
                # serialization looked exactly like a healthy pool.
                warnings.warn(
                    f"process-pool exploration fell back to serial: a "
                    f"worker could not resolve a spec from the registry "
                    f"({error.args[0] if error.args else error!r})",
                    RuntimeWarning,
                    stacklevel=2,
                )

    return [explore_one(spec, n, **options) for spec, n in jobs]
