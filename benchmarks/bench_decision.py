"""Experiment E-DECIDE: the tiered decision pipeline and its caches.

Workload: ``decide()`` cold (all tiers run, a family row is assembled
for reduction closure) versus certificate-cache-warm (one store-file row),
the structural tiers in isolation, a whole close-open sweep over a
rectangle (empirical search plus reduction-closure propagation), and a
full certificate replay pass.  The assertions pin the verdicts and the
certificate replays, so a pipeline regression fails the suite rather
than silently shifting the timings.
"""

import itertools

from repro.core import Solvability
from repro.decision import (
    CertificateCache,
    DecisionBudget,
    DecisionPipeline,
    check_certificate_payload,
    close_open,
    structural_verdict,
)
from repro.universe import UniverseStore, build_rectangle

#: Smoke rectangle for sweep/replay benches: small enough for CI, large
#: enough to hold theorem, padding and reduction certificates.
SMOKE_N, SMOKE_M = 10, 6

#: A bounded budget keeps the empirical tier deterministic in CI.
SMOKE_BUDGET = DecisionBudget(max_rounds=1, max_assignments=50_000)


def bench_decide_cold(benchmark):
    """Cold decide of the tier-2 renaming-ladder closure (no cache)."""

    def decide_cold():
        pipeline = DecisionPipeline(budget=SMOKE_BUDGET)
        return pipeline.decide(4, 5, 0, 1)

    verdict = benchmark(decide_cold)
    assert verdict.solvability is Solvability.UNSOLVABLE
    assert verdict.tier == 2
    assert not verdict.cached


def bench_decide_certificate_cache_warm(benchmark, tmp_path):
    """Warm decide: the verdict comes from the store file's cache rows."""
    cache = CertificateCache(tmp_path / "store")
    pipeline = DecisionPipeline(budget=SMOKE_BUDGET, cache=cache)
    pipeline.decide(4, 5, 0, 1)  # prime

    verdict = benchmark(pipeline.decide, 4, 5, 0, 1)
    assert verdict.cached
    assert verdict.solvability is Solvability.UNSOLVABLE


def bench_structural_tiers_sweep(benchmark):
    """Tiers 1-2 across a family (what every cell build pays per node)."""

    def sweep():
        return [
            structural_verdict(12, m, low, high)
            for m in range(1, 7)
            for low in range(0, 3)
            for high in range(max(low, 1), 13)
        ]

    results = benchmark(sweep)
    assert all(result.tier in (1, 2) for result in results)


def bench_close_open_sweep(benchmark):
    """The full close-open pass over an in-memory rectangle."""
    graph = build_rectangle(SMOKE_N, SMOKE_M)

    report = benchmark(close_open, graph, SMOKE_BUDGET)
    assert report.open_before >= report.open_after


def bench_certificate_replay(benchmark, tmp_path):
    """Replaying every certificate a built store carries."""
    store = UniverseStore(tmp_path / "store")
    store.build(SMOKE_N, SMOKE_M)
    graph = store.load()
    payloads = list(graph.certificate_payloads.values())
    assert payloads

    def replay():
        return [check_certificate_payload(payload) for payload in payloads]

    problems = benchmark(replay)
    assert not any(problems)


def bench_decide_open_with_evidence(benchmark, tmp_path):
    """Deciding a genuinely open task: refutation evidence, then cached."""
    fresh = itertools.count()

    def decide_open():
        cache = CertificateCache(tmp_path / f"store{next(fresh)}")
        pipeline = DecisionPipeline(budget=SMOKE_BUDGET, cache=cache)
        return pipeline.decide(4, 3, 0, 2)

    verdict = benchmark(decide_open)
    assert verdict.solvability is Solvability.OPEN
    assert any("no comparison-based IIS" in note for note in verdict.evidence)
