"""``close-open``: certifying the universe, the write side of the store.

One pass runs, in order, on a fresh store:

1. ``UniverseStore.build(30, 8)`` (240 cells, 5,797 nodes) and
   ``close_open`` with ``DecisionBudget(max_empirical_n=4, max_rounds=1)``
   (``build_s``);
2. a ``SweepRunner`` campaign over ``n <= 4, m <= 3`` with two worker
   processes, which closes ``<4,3,0,2>`` by SAT: prepare, run, finalize
   (``sweep_s``).  The 2-round exhaustive rung runs beside the SAT rung
   and spends its whole assignment budget without a conclusion;
3. ``pack``, a read-only load of the packed store and the certificate
   replay of ``python -m repro universe check`` (``publish_s``).

The counts, the closed cell and a clean replay are checked.  The queue
rows give every attack's outcome and seconds, so the share of attack
time that ended in a conclusion (``sweep.useful_frac``) is measured.
The traced run replays each SAT rung through the public encoding,
solver and verification functions.  The inputs are the fixed rectangle;
the seed only names the run.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import time

from repro.__main__ import main as repro_cli
from repro.core import SymmetricGSBTask
from repro.decision import DecisionBudget, check_certificate_payload
from repro.sweep import (
    SatBudgetExceeded,
    SweepConfig,
    SweepRunner,
    encode_decision_map,
    solve_cnf,
)
from repro.topology import ISProtocolComplex, verify_decision_map
from repro.universe import UniverseStore

from spans import Tracer, pass_breakdown

MAX_N, MAX_M = 30, 8
CELLS, NODES = 240, 5797
BUDGET = DecisionBudget(max_empirical_n=4, max_rounds=1)
#: 40,000 assignments keep the wasted exhaustive rung (~3 s) shorter than
#: the closing SAT rung (~8 s), so the two workers overlap only briefly
#: and a pass is short enough to run twice in a run.  With the CLI's
#: larger budgets the rung outlives the closure and the sweep's wall time
#: follows how many cores the host happens to give both workers.
SWEEP = SweepConfig(
    workers=2, max_rounds=2, max_conflicts=200_000, max_assignments=40_000
)
SWEEP_N, SWEEP_M = 4, 3
CLOSED = [(4, 3, 0, 2)]
USEFUL = ("closed", "refuted")
REPLAYED = re.compile(
    r"replayed (\d+) graph certificates, (\d+) cached certificates and "
    r"(\d+) override rows: all OK"
)


class CloseOpenWorkload:
    def __init__(self, seed: int, seconds: float, workdir) -> None:
        self.workdir = workdir

    def setup(self) -> None:
        """Nothing beyond importing the layers: each pass starts empty."""

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- one pass --------------------------------------------------------

    def run_pass(self, tracer: Tracer) -> dict:
        root = self.workdir / "store"
        trace = tracer.new_trace()
        pass_started = time.perf_counter()
        with tracer.span("pass", "bench"):
            with tracer.span("universe.build", "universe"):
                store = UniverseStore(root)
                store.build(MAX_N, MAX_M)
            built = time.perf_counter()
            with tracer.span("decision.close_open", "decision"):
                closing = store.close_open(BUDGET)
            closed_open = time.perf_counter()
            with tracer.span("sweep.prepare", "sweep"):
                runner = SweepRunner(store, SWEEP)
                runner.prepare(max_n=SWEEP_N, max_m=SWEEP_M)
            with tracer.span("sweep.run", "sweep"):
                runner.run()
            with tracer.span("sweep.finalize", "sweep"):
                report = runner.finalize()
            swept = time.perf_counter()
            with tracer.span("universe.pack", "universe"):
                store.pack()
            packed = time.perf_counter()
            with tracer.span("universe.load", "universe"):
                UniverseStore.open_readonly(root).load_cached()
            loaded = time.perf_counter()
            with tracer.span("decision.check", "decision"):
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    code = repro_cli(["universe", "check", "--dir", str(root)])
            checked = time.perf_counter()
        wall = checked - pass_started

        stats = store.stats()
        jobs = list(runner.jobs.iter_jobs())
        runner.jobs.close()
        replayed = REPLAYED.search(printed.getvalue())
        errors = []
        for ok, message in (
            (
                (stats["cells"], stats["nodes"]) == (CELLS, NODES),
                f"store has {stats['cells']} cells, {stats['nodes']} nodes",
            ),
            (
                report.closed_cells == CLOSED,
                f"sweep closed {report.closed_cells}, expected {CLOSED}",
            ),
            (
                all(job.status == "done" for job in jobs),
                f"queue rows not done: {[job.status for job in jobs]}",
            ),
            (
                code == 0 and replayed is not None,
                f"universe check exit {code}: {printed.getvalue()[-300:]}",
            ),
        ):
            if not ok:
                errors.append(message)
        shutil.rmtree(root, ignore_errors=True)
        return {
            "wall": wall,
            "trace": trace,
            "build_s": closed_open - pass_started,
            "sweep_s": swept - closed_open,
            "publish_s": checked - swept,
            "universe.build_s": built - pass_started,
            "decision.close_open_s": closed_open - built,
            "universe.pack_s": packed - swept,
            "universe.load_s": loaded - packed,
            "decision.check_s": checked - loaded,
            "stats": stats,
            "closing": closing,
            "jobs": jobs,
            "certificates": (
                sum(int(group) for group in replayed.groups()) if replayed else 0
            ),
            "attempted": 4,
            "errors": errors,
        }

    # -- metrics ---------------------------------------------------------

    @staticmethod
    def _sweep_metrics(jobs) -> dict:
        """Attack seconds, work counts and the useful share, from the
        queue rows.  A rung superseded before it ran has no seconds and
        tried nothing; an exhausted exhaustive rung tried its whole
        budget."""
        seconds = {"sat": 0.0, "exhaustive": 0.0}
        useful = conflicts = decisions = assignments = 0
        for job in jobs:
            spent = job.seconds or 0.0
            seconds[job.attack] += spent
            if job.outcome in USEFUL:
                useful += spent
            details = (job.result or {}).get("details", {})
            conflicts += details.get("conflicts", 0)
            decisions += details.get("decisions", 0)
            if job.attack == "exhaustive":
                budget = (
                    job.params["max_assignments"] if job.outcome == "exhausted" else 0
                )
                assignments += details.get("assignments_tried", budget)
        total = sum(seconds.values())
        return {
            "sweep.sat_s": seconds["sat"],
            "sweep.exhaustive_s": seconds["exhaustive"],
            "sweep.sat_conflicts": conflicts,
            "sweep.sat_decisions": decisions,
            "sweep.exhaustive_assignments": assignments,
            "sweep.useful_frac": useful / total,
        }

    def _layer_metrics(self, row: dict) -> dict:
        metrics = {
            name: row[name]
            for name in (
                "universe.build_s",
                "decision.close_open_s",
                "universe.pack_s",
                "universe.load_s",
                "decision.check_s",
            )
        }
        metrics.update(
            {
                "universe.cells": row["stats"]["cells"],
                "universe.nodes": row["stats"]["nodes"],
                "universe.edges": row["stats"]["containment_edges"],
                "decision.open_before": row["closing"].open_before,
                "decision.open_after": row["closing"].open_after,
                "decision.certificates": row["certificates"],
            }
        )
        metrics.update(self._sweep_metrics(row["jobs"]))
        return metrics

    @staticmethod
    def _job_rows(jobs) -> list[dict]:
        return [
            {
                "key": list(job.key),
                "attack": job.attack,
                "rung": job.rung,
                "rounds": job.params.get("rounds"),
                "status": job.status,
                "outcome": job.outcome,
                "seconds": job.seconds,
            }
            for job in jobs
        ]

    def _replay_sat(self, tracer: Tracer, jobs) -> tuple[dict, list[str]]:
        """Re-run every SAT rung the queue ran through the public
        encoding, solver and verification functions, one span each, and
        check that each rung concludes what the queue recorded."""
        tracer.new_trace()
        sizes = {"sat.vars": 0, "sat.clauses": 0}
        errors = []
        for job in jobs:
            if job.attack != "sat" or job.outcome == "superseded":
                continue  # a superseded rung never ran
            task = SymmetricGSBTask(*job.key)
            with tracer.span("sat.complex", "sweep"):
                complex_ = ISProtocolComplex(job.key[0], job.params["rounds"])
            with tracer.span("sat.encode", "sweep") as attrs:
                encoding = encode_decision_map(task, complex_)
                attrs.update(vars=encoding.num_vars, clauses=len(encoding.clauses))
            sizes["sat.vars"] += encoding.num_vars
            sizes["sat.clauses"] += len(encoding.clauses)
            with tracer.span("sat.solve", "sweep") as attrs:
                try:
                    result = solve_cnf(
                        encoding.num_vars,
                        encoding.clauses,
                        max_conflicts=job.params["max_conflicts"],
                    )
                except SatBudgetExceeded:
                    result = None
                else:
                    attrs.update(
                        conflicts=result.conflicts, decisions=result.decisions
                    )
            if result is None or not result.satisfiable:
                outcome = "exhausted" if result is None else "refuted"
                if outcome != job.outcome:
                    errors.append(f"SAT replay of {job.key}: {outcome}")
                continue
            if job.outcome != "closed":
                errors.append(f"SAT replay of {job.key}: satisfiable")
                continue
            with tracer.span("sat.certify", "sweep"):
                problems = verify_decision_map(
                    task, complex_, encoding.decode(result.model)
                ) + check_certificate_payload(job.result["certificate"])
            if problems:
                errors.append(f"SAT replay of {job.key}: {problems[0]}")
        times = {
            f"{name}_s": tracer.total(name)
            for name in ("sat.complex", "sat.encode", "sat.solve", "sat.certify")
        }
        return {**times, **sizes}, errors

    def measure(self, traced: bool) -> dict:
        tracer = Tracer(traced)
        row = self.run_pass(tracer)
        layers = self._layer_metrics(row)
        unit = {
            "wall": row["wall"],
            "attempted": row["attempted"],
            "errors": row["errors"],
            "detail": {"sweep.jobs": self._job_rows(row["jobs"])},
        }
        if not traced:
            unit["metrics"] = {
                "latency_ms": 1000.0 * row["wall"],
                "build_s": row["build_s"],
                "sweep_s": row["sweep_s"],
                "publish_s": row["publish_s"],
            }
            unit["detail"].update(layers)
        else:
            layers.update(pass_breakdown(tracer, {row["trace"]}))
            sat, errors = self._replay_sat(tracer, row["jobs"])
            layers.update(sat)
            unit["errors"] += errors
            unit["attempted"] += 1
            unit["metrics"] = layers
            unit["tracer"] = tracer
        unit["failed"] = len(unit["errors"])
        return unit
