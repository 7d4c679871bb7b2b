"""Experiment E-SWEEP: the resumable close-open campaign subsystem.

Workload: raw queue-protocol throughput (enqueue and lease/complete in
jobs/sec — the fixed overhead every attack pays), one full inline
refutation campaign over the ``n <= 4, m <= 3`` rectangle (the smallest
store with a real OPEN cell), and the resume-overhead pass: re-running
``prepare + run + finalize`` over an already-drained campaign, which is
what every restart of a long sweep pays before doing new work.  The
assertions pin queue invariants and campaign outcomes, so a protocol
regression fails the suite rather than silently shifting the timings.

The two 2-round rungs the close-open sweep runs on ``<4,3,0,2>`` (the
SAT rung that closes it and the exhaustive rung beside it, at the
sweep's budgets) are timed one round each.  Their work counters are
deterministic, so they are asserted exactly: a change to the search
fails the suite even when it does not move the time.
"""

import itertools

import pytest

from repro.core import SymmetricGSBTask
from repro.sweep import SweepConfig, SweepRunner
from repro.sweep.attacks import attack_sat, default_ladder
from repro.sweep.jobs import DONE, JobStore, OUTCOME_CLOSED, OUTCOME_REFUTED, PENDING
from repro.topology import ISProtocolComplex, search_decision_map
from repro.universe import UniverseStore

#: Deterministic sub-second attacks: 1-round ladders, bounded budgets.
SMOKE_CONFIG = SweepConfig(
    workers=0,
    max_rounds=1,
    max_conflicts=200_000,
    max_assignments=200_000,
)

#: Synthetic queue size for the protocol benches.
QUEUE_JOBS = 300


def synthetic_entries():
    return [
        ((n, 3, 0, 2), "sat", rung, {"rounds": rung + 1})
        for n in range(4, 4 + QUEUE_JOBS // 3)
        for rung in range(3)
    ]


def bench_sweep_enqueue(benchmark, tmp_path):
    """Enqueue throughput: one INSERT per (cell, attack, rung) row."""
    counter = itertools.count()

    def setup():
        queue = JobStore(tmp_path / f"enqueue-{next(counter)}.sqlite")
        return (queue,), {}

    def enqueue(queue):
        return queue.enqueue(synthetic_entries())

    inserted = benchmark.pedantic(enqueue, setup=setup, rounds=5)
    assert inserted == QUEUE_JOBS


def bench_sweep_queue_drain(benchmark, tmp_path):
    """Lease/complete throughput: the per-job protocol overhead."""
    counter = itertools.count()

    def setup():
        queue = JobStore(tmp_path / f"drain-{next(counter)}.sqlite")
        queue.enqueue(synthetic_entries())
        return (queue,), {}

    def drain(queue):
        drained = 0
        while True:
            job = queue.lease("bench")
            if job is None:
                return drained
            queue.complete(job.id, "bench", OUTCOME_REFUTED, None, 0.0)
            drained += 1

    drained = benchmark.pedantic(drain, setup=setup, rounds=5)
    assert drained == QUEUE_JOBS


def bench_sweep_inline_campaign(benchmark, tmp_path):
    """A full prepare/run/finalize refutation campaign, solver included."""
    counter = itertools.count()

    def setup():
        store = UniverseStore(tmp_path / f"campaign-{next(counter)}")
        store.build(4, 3)
        return (store,), {}

    def campaign(store):
        return SweepRunner(store, SMOKE_CONFIG).campaign()

    report = benchmark.pedantic(campaign, setup=setup, rounds=3)
    assert report.enqueued == 2
    assert report.completed == 2
    assert report.closed_cells == []  # no 1-round map for (4,3,0,2)


def bench_sweep_resume_overhead(benchmark, tmp_path):
    """Restarting a finished campaign: the fixed cost of resuming."""
    store = UniverseStore(tmp_path / "resume")
    store.build(4, 3)
    SweepRunner(store, SMOKE_CONFIG).campaign()
    fingerprint = store.fingerprint()

    def resume():
        return SweepRunner(store, SMOKE_CONFIG).campaign()

    report = benchmark(resume)
    assert report.enqueued == 0  # prepare found nothing new
    assert report.completed == 2  # ...but the done rows are all replayed
    counts = SweepRunner(store, SMOKE_CONFIG).jobs.counts()
    assert counts.get(PENDING, 0) == 0 and counts[DONE] == 2
    assert store.fingerprint() == fingerprint  # replay is a no-op


#: The close-open sweep's 2-round rungs on its one OPEN cell, with the
#: budgets ``perfbench``'s close-open workload gives them.
RUNG_KEY = (4, 3, 0, 2)
RUNG_PARAMS = {
    attack: params
    for attack, _rung, params in default_ladder(
        RUNG_KEY, max_rounds=2, max_conflicts=200_000, max_assignments=40_000
    )
    if params["rounds"] == 2
}


def bench_sat_rung_4302_r2(benchmark):
    """The closing SAT rung: complex, encode, solve and certify."""
    outcome = benchmark.pedantic(
        attack_sat, args=(RUNG_KEY, RUNG_PARAMS["sat"]), rounds=1
    )
    assert outcome.outcome == OUTCOME_CLOSED
    counters = {
        "conflicts": outcome.details["conflicts"],
        "decisions": outcome.details["decisions"],
    }
    benchmark.extra_info.update(counters)
    assert counters == {"conflicts": 1595, "decisions": 24525}


def bench_exhaustive_rung_4302_r2(benchmark):
    """The exhaustive rung beside it: complex and backtracking search,
    which spends its whole assignment budget without a conclusion."""
    budget = RUNG_PARAMS["exhaustive"]["max_assignments"]
    task = SymmetricGSBTask(*RUNG_KEY)

    def rung():
        complex_ = ISProtocolComplex(RUNG_KEY[0], 2)
        with pytest.raises(RuntimeError, match=f"exceeded {budget} assignments"):
            search_decision_map(task, complex_, max_assignments=budget)

    benchmark.pedantic(rung, rounds=1)
    benchmark.extra_info["assignments"] = budget
    assert budget == 40_000
