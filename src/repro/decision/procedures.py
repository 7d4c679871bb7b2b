"""The tiered decision procedures, in cost order.

Tier 1 — **closed forms** (:func:`closed_form`): the paper's Theorems
9-11 with Lemmas 1/5 and Corollary 5, via the certified classifier in
:mod:`repro.core.solvability`.  Microseconds; certificate kind
``theorem``.

Tier 2 — **value padding** (:func:`value_padding`): kernel-level
arguments over the family lattice.  A canonical task with no lower bound
(``l* = 0``) is sandwiched by the same bounds over fewer/more values:
fewer values is harder (its outputs embed by zero-padding the counting
vector), more values is weaker.  A closed-form-solvable harder sibling
or closed-form-unsolvable weaker sibling therefore decides the task —
notably the renaming ladder ``n < m < 2n-2`` at prime-power n, which the
bare classifier leaves OPEN.  The witness family may lie outside any
built rectangle; everything is still closed-form.  Certificate kind
``value-padding``.

Tier 3 — **reduction closure** (:func:`reduction_closure`,
:func:`close_open`): verdicts propagate along the certified edges of the
universe graph.  ``u -> v`` means a solution of v solves u, so
solvability flows backwards along edges and unsolvability forwards.
Certificate kind ``reduction-path`` (each hop nests the terminal's own
certificate).

Tier 4 — **empirical decision** (:func:`empirical`): exhaustive search
for an r-round comparison-based IIS decision map
(:mod:`repro.topology.decision`), rounds and assignment counts bounded
by the budget.  A found map is compiled and model-checked on the
prefix-sharing engine (:mod:`repro.shm.engine`) before the verdict is
issued; exhausted searches are recorded as sound bounded-round
refutation *evidence* without changing the OPEN verdict (no r-round
protocol for r <= R is not unsolvability).  Certificate kind
``decision-map``.

Layering note: this module imports :mod:`repro.core` and the sibling
certificate module at import time only.  The universe graph, topology
and shm engines are imported lazily inside the tiers that need them, so
:mod:`repro.universe.graph` can itself import :func:`structural_verdict`
(tiers 1-2) without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..core.canonical import canonical_parameters
from ..core.feasibility import is_feasible_symmetric
from ..core.solvability import Solvability, classify_parameters_certified
from .certificates import (
    Certificate,
    DecisionMapCertificate,
    PaddingCertificate,
    ReductionPathCertificate,
    SOLVABLE_VALUES,
    TheoremCertificate,
    UNSOLVABLE_VALUE,
    replay_decision_map,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..universe.graph import UniverseGraph

Key = tuple[int, int, int, int]


@dataclass(frozen=True)
class DecisionBudget:
    """Cost ceilings for the expensive tiers.

    The defaults match the CLI's: empirical decision runs for ``n <= 4``
    and at most two immediate-snapshot rounds, bounded to half a million
    CSP assignments per search — enough to find every small-round map
    that exists and to exhaust (hence soundly refute) the one-round
    spaces, while keeping a cold ``decide`` interactive.

    ``engine_replay_n`` covers the whole empirical range (``n <= 4``):
    found maps are model-checked on the compiled protocol core before
    being certified, and n = 4 replay is cheap there (forks are array
    copies, not generator replays).
    """

    max_empirical_n: int = 4
    max_rounds: int = 2
    max_assignments: int = 500_000
    max_facets: int = 200_000
    engine_replay_n: int = 4
    use_graph: bool = True
    graph_max_n: int = 20  # largest n a single decide builds a family row for
    graph_max_m: int = 6

    def signature(self) -> dict:
        """The fields that decide whether a cached OPEN verdict is stale."""
        return {
            "max_empirical_n": self.max_empirical_n,
            "max_rounds": self.max_rounds,
            "max_assignments": self.max_assignments,
        }


@dataclass(frozen=True)
class ProcedureResult:
    """One tier's conclusion (or its OPEN evidence)."""

    solvability: Solvability
    reason: str
    tier: int
    procedure: str
    certificate: Certificate | None = None
    evidence: tuple[str, ...] = ()
    #: Structured consumption counters (the empirical tier reports how
    #: much of its budget the search actually spent).
    consumed: dict = field(default_factory=dict)

    @property
    def decided(self) -> bool:
        return self.solvability is not Solvability.OPEN


def canonical_key(n: int, m: int, low: int, high: int) -> Key:
    """Clamp and canonicalize to the synonym-class representative."""
    low, high = max(low, 0), min(high, n)
    if not is_feasible_symmetric(n, m, low, high):
        return (n, m, low, high)
    return (n, m, *canonical_parameters(n, m, low, high))


# ----------------------------------------------------------------------
# Tier 1: closed forms
# ----------------------------------------------------------------------

def closed_form(n: int, m: int, low: int, high: int) -> ProcedureResult:
    """The certified classifier (Theorems 9-11; never returns None)."""
    verdict, reason, payload = classify_parameters_certified(n, m, low, high)
    certificate = (
        TheoremCertificate.from_payload(payload) if payload else None
    )
    return ProcedureResult(
        solvability=verdict,
        reason=reason,
        tier=1,
        procedure="closed-form",
        certificate=certificate,
    )


# ----------------------------------------------------------------------
# Tier 2: value-padding arguments over the kernel lattice
# ----------------------------------------------------------------------

def value_padding(n: int, m: int, low: int, high: int) -> ProcedureResult | None:
    """Decide via the same bounds over fewer/more values, if closed forms can.

    Only applies to canonical tasks with ``l* = 0`` (padding needs unused
    values to be legal).  Scans ``m' < m`` for a solvable harder sibling
    and ``m < m' <= 2n-2`` for an unsolvable weaker one; both witnesses
    are closed-form, so this tier never leaves the family lattice.
    """
    key = canonical_key(n, m, low, high)
    n, m, low_c, high_c = key
    if low_c != 0 or high_c < 1:
        return None
    # Harder siblings: fewer values, same bounds.  Solvable => solvable.
    smallest = max(1, -(-n // high_c))
    for m2 in range(smallest, m):
        verdict, _, payload = classify_parameters_certified(n, m2, 0, high_c)
        if payload is not None and verdict.value in SOLVABLE_VALUES:
            witness = (n, m2, 0, high_c)
            certificate = PaddingCertificate(
                task=key,
                witness=witness,
                direction="solvable-from-harder",
                verdict_value=Solvability.SOLVABLE.value,
                witness_certificate=TheoremCertificate.from_payload(payload),
            )
            return ProcedureResult(
                solvability=Solvability.SOLVABLE,
                reason=(
                    f"solves by padding: <{n},{m2},0,{high_c}> is "
                    f"{verdict.value} and uses a subset of the values"
                ),
                tier=2,
                procedure="value-padding",
                certificate=certificate,
            )
    # Weaker siblings: more values, same bounds.  Unsolvable => unsolvable.
    for m2 in range(m + 1, max(m + 1, 2 * n - 1)):
        verdict, _, payload = classify_parameters_certified(n, m2, 0, high_c)
        if payload is not None and verdict is Solvability.UNSOLVABLE:
            witness = (n, m2, 0, high_c)
            certificate = PaddingCertificate(
                task=key,
                witness=witness,
                direction="unsolvable-from-weaker",
                verdict_value=UNSOLVABLE_VALUE,
                witness_certificate=TheoremCertificate.from_payload(payload),
            )
            return ProcedureResult(
                solvability=Solvability.UNSOLVABLE,
                reason=(
                    f"unsolvable by padding: a solution would solve "
                    f"<{n},{m2},0,{high_c}>, which is {verdict.value}"
                ),
                tier=2,
                procedure="value-padding",
                certificate=certificate,
            )
    return None


def structural_verdict(
    n: int, m: int, low: int, high: int
) -> ProcedureResult:
    """Tiers 1-2 combined: the budget-free, deterministic verdict.

    This is what the universe graph bakes into its cells — pure closed
    forms, no exploration, no graph — so stored cells stay a deterministic
    function of ``(n, m)``.
    """
    result = closed_form(n, m, low, high)
    if result.decided:
        return result
    padded = value_padding(n, m, low, high)
    return padded if padded is not None else result


# ----------------------------------------------------------------------
# Tier 3: reduction closure over the universe graph
# ----------------------------------------------------------------------

def _path_certificate(
    graph: "UniverseGraph",
    key: Key,
    direction: str,
    edges: list,
    terminal: Key,
    terminal_payload: dict,
) -> ReductionPathCertificate:
    from .certificates import certificate_from_payload

    verdict = (
        Solvability.SOLVABLE.value
        if direction == "solvable-from-target"
        else UNSOLVABLE_VALUE
    )
    return ReductionPathCertificate(
        task=key,
        verdict_value=verdict,
        direction=direction,
        path=tuple(
            (edge.source, edge.target, edge.kind, edge.label) for edge in edges
        ),
        terminal=terminal,
        terminal_certificate=certificate_from_payload(terminal_payload),
    )


def reduction_closure(
    graph: "UniverseGraph", key: Key
) -> ProcedureResult | None:
    """Walk certified edges from ``key`` to a decided, certified node.

    Forward (successors are harder): the first reachable solvable node
    certifies solvability.  Backward: a reachable unsolvable ancestor
    certifies unsolvability.  Nodes without certificates (legacy stores)
    are never used as terminals.
    """
    from collections import deque

    if key not in graph:
        return None

    def search(forward: bool):
        want = SOLVABLE_VALUES if forward else {UNSOLVABLE_VALUE}
        step = graph.successors if forward else graph.predecessors
        parents: dict[Key, object] = {}
        queue = deque([key])
        while queue:
            current = queue.popleft()
            for edge in step(current):
                neighbor = edge.target if forward else edge.source
                if neighbor == key or neighbor in parents:
                    continue
                parents[neighbor] = edge
                node = graph.node(neighbor)
                if node.solvability in want and node.certificate_id:
                    payload = graph.certificate_payload(node.certificate_id)
                    if payload is None:
                        continue
                    # Forward edges chain key -> ... -> terminal; the
                    # backward walk already yields terminal -> ... -> key
                    # (each stored edge points source -> target).
                    edges, cursor = [], neighbor
                    while cursor != key:
                        edge_in = parents[cursor]
                        edges.append(edge_in)
                        cursor = edge_in.source if forward else edge_in.target
                    if forward:
                        edges.reverse()
                    return neighbor, payload, edges
                queue.append(neighbor)
        return None

    found = search(forward=True)
    if found is not None:
        terminal, payload, edges = found
        certificate = _path_certificate(
            graph, key, "solvable-from-target", edges, terminal, payload
        )
        return ProcedureResult(
            solvability=Solvability.SOLVABLE,
            reason=(
                f"reduction closure: certified path of {len(edges)} edge(s) "
                f"to {terminal} [{graph.node(terminal).solvability}]"
            ),
            tier=3,
            procedure="reduction-closure",
            certificate=certificate,
        )
    found = search(forward=False)
    if found is not None:
        terminal, payload, edges = found
        certificate = _path_certificate(
            graph, key, "unsolvable-from-source", edges, terminal, payload
        )
        return ProcedureResult(
            solvability=Solvability.UNSOLVABLE,
            reason=(
                f"reduction closure: certified path of {len(edges)} edge(s) "
                f"from unsolvable {terminal}"
            ),
            tier=3,
            procedure="reduction-closure",
            certificate=certificate,
        )
    return None


# ----------------------------------------------------------------------
# Tier 4: empirical decision maps
# ----------------------------------------------------------------------

def empirical(
    n: int,
    m: int,
    low: int,
    high: int,
    budget: DecisionBudget,
) -> ProcedureResult:
    """Search for an r-round comparison-based IIS protocol, r <= budget.

    Returns SOLVABLE with a checked ``decision-map`` certificate when a
    map is found; otherwise OPEN with per-round evidence — either an
    exhaustive refutation ("no r-round protocol exists", a sound bounded
    statement) or a budget exhaustion note.
    """
    from ..core.gsb import SymmetricGSBTask
    from ..topology.decision import decision_class_order, search_decision_map
    from ..topology.is_complex import ISProtocolComplex, ordered_bell_number

    key = canonical_key(n, m, low, high)
    evidence: list[str] = []
    consumed = {"rounds_searched": 0, "assignments_tried": 0}
    if key[0] > budget.max_empirical_n:
        return ProcedureResult(
            solvability=Solvability.OPEN,
            reason="empirical tier skipped",
            tier=4,
            procedure="decision-map",
            evidence=(
                f"empirical decision skipped: n={key[0]} exceeds budget "
                f"max_empirical_n={budget.max_empirical_n}",
            ),
        )
    task = SymmetricGSBTask(*key)
    for rounds in range(1, budget.max_rounds + 1):
        facets = ordered_bell_number(task.n) ** rounds
        if facets > budget.max_facets:
            evidence.append(
                f"round {rounds}: complex has {facets} facets, over the "
                f"budget of {budget.max_facets}"
            )
            break
        complex_ = ISProtocolComplex(task.n, rounds)
        consumed["rounds_searched"] = rounds
        try:
            result = search_decision_map(
                task, complex_, max_assignments=budget.max_assignments
            )
        except RuntimeError:
            consumed["assignments_tried"] += budget.max_assignments
            evidence.append(
                f"round {rounds}: search budget of "
                f"{budget.max_assignments} assignments exhausted undecided"
            )
            break
        consumed["assignments_tried"] += result.assignments_tried
        if result.solvable:
            order = decision_class_order(complex_)
            assignment = tuple(result.decision_map[label] for label in order)
            certificate = DecisionMapCertificate(
                task=key,
                verdict_value=Solvability.SOLVABLE.value,
                n=task.n,
                rounds=rounds,
                assignment=assignment,
                facets=complex_.facet_count(),
            )
            reason = (
                f"decided empirically: {rounds}-round comparison-based IIS "
                f"decision map over {len(order)} classes"
            )
            if task.n <= budget.engine_replay_n:
                problems = replay_decision_map(
                    task, rounds, dict(zip(order, assignment))
                )
                if problems:
                    # The map verified on the complex but failed live
                    # replay: never certify it (this would indicate a
                    # modelling bug, which is exactly what replay is for).
                    evidence.append(
                        f"round {rounds}: map found but engine replay "
                        f"failed: {problems[0]}"
                    )
                    break
                reason += "; engine replay of every interleaving passed"
            return ProcedureResult(
                solvability=Solvability.SOLVABLE,
                reason=reason,
                tier=4,
                procedure="decision-map",
                certificate=certificate,
                consumed=dict(consumed),
            )
        evidence.append(
            f"round {rounds}: no comparison-based IIS protocol exists "
            f"(search exhausted {result.assignments_tried} assignments)"
        )
    return ProcedureResult(
        solvability=Solvability.OPEN,
        reason="empirical search did not decide the task",
        tier=4,
        procedure="decision-map",
        evidence=tuple(evidence),
        consumed=dict(consumed),
    )


# ----------------------------------------------------------------------
# The close-open sweep (tiers 3-4 over a whole graph)
# ----------------------------------------------------------------------

@dataclass
class CloseOpenReport:
    """Outcome of one close-open sweep over a universe graph."""

    open_before: int = 0
    open_after: int = 0
    closed: dict[Key, ProcedureResult] = field(default_factory=dict)
    evidence: dict[Key, tuple[str, ...]] = field(default_factory=dict)

    @property
    def closed_count(self) -> int:
        return len(self.closed)


def close_open(
    graph: "UniverseGraph",
    budget: DecisionBudget | None = None,
    keys: Iterable[Key] | None = None,
) -> CloseOpenReport:
    """Close OPEN nodes of a graph with tiers 4 then 3, to a fixed point.

    Empirical decisions run first (smallest n first, bounded by the
    budget); reduction closure then propagates every verdict — baked and
    freshly closed alike — along the graph's certified edges until
    nothing changes.  The graph is *not* mutated; callers apply the
    returned verdicts (the universe store persists them as overrides).
    """
    budget = budget or DecisionBudget()
    report = CloseOpenReport()
    open_keys = sorted(
        key
        for key in (
            keys
            if keys is not None
            else (node.key for node in graph.nodes())
        )
        if key in graph
        and graph.node(key).solvability == Solvability.OPEN.value
    )
    report.open_before = len(open_keys)

    verdicts: dict[Key, str] = {
        node.key: node.solvability for node in graph.nodes()
    }
    payloads: dict[Key, dict] = {}

    def payload_for(key: Key) -> dict | None:
        if key in payloads:
            return payloads[key]
        node = graph.node(key)
        if node.certificate_id:
            return graph.certificate_payload(node.certificate_id)
        return None

    def close(key: Key, result: ProcedureResult) -> None:
        report.closed[key] = result
        verdicts[key] = result.solvability.value
        if result.certificate is not None:
            payloads[key] = result.certificate.payload()

    # Tier 4 first: empirical closures seed the propagation below.
    for key in open_keys:
        if key[0] > budget.max_empirical_n:
            continue
        result = empirical(*key, budget=budget)
        if result.evidence:
            report.evidence[key] = result.evidence
        if result.decided:
            close(key, result)

    # Tier 3: propagate along edges until the fixed point.
    changed = True
    while changed:
        changed = False
        for edge in graph.edges():
            source_v = verdicts.get(edge.source)
            target_v = verdicts.get(edge.target)
            if (
                target_v in SOLVABLE_VALUES
                and source_v == Solvability.OPEN.value
            ):
                terminal_payload = payload_for(edge.target)
                if terminal_payload is None:
                    continue
                certificate = _path_certificate(
                    graph,
                    edge.source,
                    "solvable-from-target",
                    [edge],
                    edge.target,
                    terminal_payload,
                )
                close(
                    edge.source,
                    ProcedureResult(
                        solvability=Solvability.SOLVABLE,
                        reason=(
                            f"reduction closure: {edge.kind} edge to "
                            f"{edge.target} [{target_v}]"
                        ),
                        tier=3,
                        procedure="reduction-closure",
                        certificate=certificate,
                    ),
                )
                changed = True
            elif (
                source_v == UNSOLVABLE_VALUE
                and target_v == Solvability.OPEN.value
            ):
                terminal_payload = payload_for(edge.source)
                if terminal_payload is None:
                    continue
                certificate = _path_certificate(
                    graph,
                    edge.target,
                    "unsolvable-from-source",
                    [edge],
                    edge.source,
                    terminal_payload,
                )
                close(
                    edge.target,
                    ProcedureResult(
                        solvability=Solvability.UNSOLVABLE,
                        reason=(
                            f"reduction closure: {edge.kind} edge from "
                            f"unsolvable {edge.source}"
                        ),
                        tier=3,
                        procedure="reduction-closure",
                        certificate=certificate,
                    ),
                )
                changed = True
    report.open_after = sum(
        1
        for value in verdicts.values()
        if value == Solvability.OPEN.value
    )
    return report
