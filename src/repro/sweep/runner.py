"""The campaign runner: multiprocess workers draining the job queue.

A *campaign* is a long-running attempt to shrink a universe store's OPEN
region.  Its lifecycle:

``prepare``
    Load the graph (overrides applied), list the OPEN cells in the
    rectangle, and enqueue each cell's attack ladder
    (:func:`repro.sweep.attacks.default_ladder`) into the SQLite queue
    at ``<store>/sweep/jobs.sqlite``.  Idempotent — re-preparing adds
    only work that is not already queued.

``run``
    Fork ``workers`` processes that lease jobs, run attacks, heartbeat
    their leases, and commit results.  The parent supervises: it
    requeues expired leases and replaces crashed workers (a worker that
    dies mid-attack — SIGKILL, OOM, injected fault — costs one lease
    timeout, nothing more).  ``workers=0`` runs the same loop inline,
    which tests and benchmarks use for determinism.

``finalize``
    Fold the queue's results into the universe store: for every cell the
    deterministic (rung, attack)-least closing job wins, its certificate
    payload is committed through
    :meth:`repro.universe.persist.UniverseStore.apply_closures`, and a
    propagation-only close-open pass pushes the new verdicts along the
    graph's certified edges.  Finalize reads only ``done`` rows in a
    deterministic order, so an interrupted-and-resumed campaign
    converges to the byte-identical overrides document (hence store
    fingerprint) of an uninterrupted one.

The queue is the write-ahead log and the store's override rows are the
checkpoint: killing any process at any instant loses at most one
in-flight attack, never a committed result.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..testing.faults import install_from_env
from ..universe.persist import UniverseStore
from .attacks import default_ladder, run_attack
from .jobs import (
    DONE,
    JobStore,
    OUTCOME_CLOSED,
    OUTCOME_REFUTED,
    PENDING,
    RUNNING,
)

__all__ = ["SweepConfig", "SweepRunner", "sweep_jobs_path"]

Key = tuple[int, int, int, int]


def sweep_jobs_path(store_root: str | Path) -> Path:
    """Where a store's campaign queue lives."""
    return Path(store_root) / "sweep" / "jobs.sqlite"


@dataclass(frozen=True)
class SweepConfig:
    """Campaign knobs; the signature fields stamp the overrides document."""

    workers: int = 2
    max_rounds: int = 3
    max_conflicts: int = 1_000_000
    max_assignments: int = 2_000_000
    lease_seconds: float = 300.0
    max_attempts: int = 3
    poll_seconds: float = 0.2
    #: Total process spawns allowed (worker crashes consume respawns).
    max_spawns: int | None = None

    def signature(self) -> dict:
        """What the campaign tried — recorded next to its closures."""
        return {
            "sweep": True,
            "max_rounds": self.max_rounds,
            "max_conflicts": self.max_conflicts,
            "max_assignments": self.max_assignments,
        }


def _worker_main(
    jobs_path: str,
    owner: str,
    lease_seconds: float,
    max_attempts: int,
) -> None:
    """One worker process: lease, attack, commit, repeat until drained."""
    install_from_env()
    queue = JobStore(jobs_path)
    # Heartbeats run on their own connection: SQLite connections are
    # thread-affine, and the attack blocks the main thread for minutes.
    beats = JobStore(jobs_path)
    while True:
        job = queue.lease(owner, lease_seconds)
        if job is None:
            return
        stop = threading.Event()

        def keep_alive(job_id: int = job.id) -> None:
            while not stop.wait(lease_seconds / 3):
                if not beats.heartbeat(job_id, owner, lease_seconds):
                    return  # lease lost; the attack's result will be dropped

        beat = threading.Thread(target=keep_alive, daemon=True)
        beat.start()
        try:
            outcome, seconds = run_attack(job.attack, job.key, job.params)
        except Exception as error:  # noqa: BLE001 - any attack failure retries
            stop.set()
            beat.join()
            queue.fail(job.id, owner, repr(error), max_attempts)
            continue
        stop.set()
        beat.join()
        committed = queue.complete(
            job.id, owner, outcome.outcome, outcome.to_json(), seconds
        )
        if committed and outcome.outcome == OUTCOME_CLOSED:
            # The cell is decided; deeper rungs for it are wasted work.
            queue.supersede_pending(job.key)


@dataclass
class SweepReport:
    """What one ``run`` + ``finalize`` pass accomplished."""

    enqueued: int = 0
    completed: int = 0
    closed_cells: list[Key] = field(default_factory=list)
    propagated: int = 0
    spawns: int = 0
    seconds: float = 0.0


class SweepRunner:
    """Drives one campaign against one universe store."""

    def __init__(
        self, store: UniverseStore, config: SweepConfig | None = None
    ) -> None:
        self.store = store
        self.config = config or SweepConfig()
        self.jobs = JobStore(sweep_jobs_path(store.root))

    # -- prepare ---------------------------------------------------------

    def open_keys(
        self, max_n: int | None = None, max_m: int | None = None
    ) -> list[Key]:
        """The store's OPEN cells (overrides applied), sorted."""
        graph = self.store.load(max_n=max_n, max_m=max_m)
        return sorted(
            node.key for node in graph.nodes() if node.solvability == "open"
        )

    def prepare(
        self, max_n: int | None = None, max_m: int | None = None
    ) -> int:
        """Enqueue the attack ladder for every OPEN cell; returns new jobs."""
        entries = []
        for key in self.open_keys(max_n=max_n, max_m=max_m):
            for attack, rung, params in default_ladder(
                key,
                max_rounds=self.config.max_rounds,
                max_conflicts=self.config.max_conflicts,
                max_assignments=self.config.max_assignments,
            ):
                entries.append((key, attack, rung, params))
        inserted = self.jobs.enqueue(entries)
        self.jobs.set_meta(
            "signature", json.dumps(self.config.signature(), sort_keys=True)
        )
        self.jobs.set_meta("store_root", str(self.store.root))
        return inserted

    # -- run -------------------------------------------------------------

    def run(self, max_jobs: int | None = None) -> int:
        """Drain the queue; returns the number of attacks completed.

        With ``workers == 0`` everything runs inline (deterministic, no
        forking); otherwise the parent supervises a pool of worker
        processes, requeueing expired leases and replacing any worker
        that exits — cleanly or by crash — while work remains.
        """
        before = self.jobs.counts().get(DONE, 0)
        if self.config.workers <= 0:
            self._run_inline(max_jobs)
        else:
            self._run_forked()
        return self.jobs.counts().get(DONE, 0) - before

    def _run_inline(self, max_jobs: int | None) -> None:
        completed = 0
        while max_jobs is None or completed < max_jobs:
            self.jobs.requeue_stale()
            job = self.jobs.lease("inline", self.config.lease_seconds)
            if job is None:
                return
            try:
                outcome, seconds = run_attack(job.attack, job.key, job.params)
            except Exception as error:  # noqa: BLE001
                self.jobs.fail(
                    job.id, "inline", repr(error), self.config.max_attempts
                )
                continue
            committed = self.jobs.complete(
                job.id, "inline", outcome.outcome, outcome.to_json(), seconds
            )
            if committed and outcome.outcome == OUTCOME_CLOSED:
                self.jobs.supersede_pending(job.key)
            completed += 1

    def _run_forked(self) -> None:
        config = self.config
        limit = (
            config.max_spawns
            if config.max_spawns is not None
            else config.workers * 8
        )
        context = multiprocessing.get_context("fork")
        procs: dict[str, multiprocessing.Process] = {}
        spawned = 0
        try:
            while True:
                self.jobs.requeue_stale()
                counts = self.jobs.counts()
                pending = counts.get(PENDING, 0)
                running = counts.get(RUNNING, 0)
                for name, proc in list(procs.items()):
                    if not proc.is_alive():
                        proc.join()
                        del procs[name]
                if pending == 0 and running == 0:
                    if not procs:
                        return
                elif not procs and spawned >= limit:
                    # Crash loop: every allowed spawn died with work left.
                    raise RuntimeError(
                        f"sweep gave up after {spawned} worker spawns with "
                        f"{pending + running} jobs unfinished"
                    )
                while (
                    len(procs) < config.workers
                    and pending > 0
                    and spawned < limit
                ):
                    spawned += 1
                    name = f"sweep-worker-{spawned}"
                    proc = context.Process(
                        target=_worker_main,
                        args=(
                            str(self.jobs.path),
                            name,
                            config.lease_seconds,
                            config.max_attempts,
                        ),
                        name=name,
                    )
                    proc.start()
                    procs[name] = proc
                time.sleep(config.poll_seconds)
        finally:
            for proc in procs.values():
                proc.terminate()
            for proc in procs.values():
                proc.join()

    # -- finalize --------------------------------------------------------

    def finalize(self, propagate: bool = True) -> SweepReport:
        """Commit queue results into the store, deterministically.

        Already-closed cells (a previous finalize, or a concurrent
        close-open run) are never overwritten — the first committed
        certificate for a cell stays, which keeps replays idempotent.
        """
        from ..decision.certificates import certificate_id

        started = time.perf_counter()
        report = SweepReport()
        existing = self.store.read_overrides().get("overrides", {})

        by_cell: dict[Key, list] = {}
        for job in self.jobs.iter_done():
            by_cell.setdefault(job.key, []).append(job)

        closures: dict[Key, dict] = {}
        evidence: dict[Key, tuple[str, ...]] = {}
        open_entries: dict[Key, dict] = {}
        for key, jobs in sorted(by_cell.items()):
            lines: list[str] = []
            for job in jobs:
                if job.result and job.outcome == OUTCOME_REFUTED:
                    lines.extend(job.result.get("evidence", ()))
            winner = next(
                (job for job in jobs if job.outcome == OUTCOME_CLOSED), None
            )
            if winner is not None:
                report.closed_cells.append(key)
                if ",".join(str(part) for part in key) in existing:
                    continue  # already committed; keep the stored row
                payload = winner.result["certificate"]
                closures[key] = {
                    "solvability": winner.result["verdict"],
                    "reason": (
                        f"sweep[{winner.attack}]: {winner.result['reason']}"
                    ),
                    "tier": 4,
                    "procedure": "decision-map",
                    "certificate_id": certificate_id(payload),
                    "certificate": payload,
                }
                if lines:
                    evidence[key] = tuple(lines)
            elif lines:
                # Strengthened bounded-round refutation evidence for a
                # cell that stays OPEN: warm the decide cache with it.
                open_entries[key] = {
                    "solvability": "open",
                    "reason": (
                        "sweep: every queued attack refuted or exhausted"
                    ),
                    "tier": 4,
                    "procedure": "decision-map",
                    "certificate_id": None,
                    "certificate": None,
                    "evidence": lines,
                }
        self.store.apply_closures(
            closures,
            self.config.signature(),
            evidence=evidence,
            open_entries=open_entries,
        )
        if propagate and closures:
            # Push the new verdicts along certified edges (tier 3 only:
            # the empirical tier is what the queue just ran).
            from ..decision.procedures import DecisionBudget

            before = len(self.store.read_overrides().get("overrides", {}))
            self.store.close_open(
                DecisionBudget(
                    max_empirical_n=0,
                    max_rounds=self.config.max_rounds,
                )
            )
            after = len(self.store.read_overrides().get("overrides", {}))
            report.propagated = after - before
        report.completed = sum(
            1 for jobs in by_cell.values() for _ in jobs
        )
        report.seconds = time.perf_counter() - started
        return report

    # -- one-shot convenience -------------------------------------------

    def campaign(
        self,
        max_n: int | None = None,
        max_m: int | None = None,
        max_jobs: int | None = None,
    ) -> SweepReport:
        """prepare + run + finalize, returning the combined report."""
        started = time.perf_counter()
        enqueued = self.prepare(max_n=max_n, max_m=max_m)
        self.run(max_jobs=max_jobs)
        report = self.finalize()
        report.enqueued = enqueued
        report.seconds = time.perf_counter() - started
        return report
