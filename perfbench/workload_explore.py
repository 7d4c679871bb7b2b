"""``explore``: the model checker, the evidence behind Figure 2 and WSB.

One pass runs, in order:

1. the ``verify`` checks: Table 1 and Figure 1 regeneration and the
   exhaustive Figure 2 model check at n=3;
2. the registry battery ``wsb``, ``election``, ``renaming``, ``wsb-grh``
   at n=4, serial;
3. ``renaming`` at n=6, serial;
4. ``renaming`` n=6 and ``wsb-grh`` n=4 sharded over two pool workers.

Serial explorations build the compiled machine and run the
prefix-sharing engine with the orbit quotient, exactly as
``explore_one`` does; sharded ones call ``explore_decided_parallel``.
Set-up only imports the program: like a command-line run, each pass
compiles its own machines.  ``shm.compile_s`` is the time spent in
``make_spec_machine`` (the algorithm, the system probe and the traced
roots); the step table grows lazily while the engine explores, so that
tracing is inside ``shm.engine_s`` and its size is ``shm.table_nodes``.
Every exploration's ``(runs, distinct, violations)`` is pinned, and the
sharded decided-vector multisets must equal the serial ones.  The seed
picks the battery order and the Figure 2 oracle seed; neither changes
the pinned answers.
"""

from __future__ import annotations

import random
import time
import tracemalloc

from repro.algorithms import figure2_renaming, figure2_system_factory, figure2_task
from repro.analysis import figure1_matches_paper, table1_matches_paper
from repro.core.cache_config import cache_stats
from repro.shm import (
    EngineStats,
    PrefixSharingEngine,
    check_algorithm_exhaustive,
    explore_decided_parallel,
    get_spec,
    make_spec_machine,
)

from contract import MEMO_SHARE
from spans import Tracer, pass_breakdown

BATTERY = ("wsb", "election", "renaming", "wsb-grh")
BATTERY_N = 4
LARGE = ("renaming", 6)
SHARDED = (("renaming", 6), ("wsb-grh", 4))
JOBS = 2

#: (runs, distinct decided vectors, illegal runs) of each exploration.
#: The election spec is supposed to be refuted by model checking.
PINNED = {
    ("wsb", 4): (24, 6, 0),
    ("election", 4): (2520, 8, 630),
    ("renaming", 4): (369600, 36, 0),
    ("wsb-grh", 4): (27749755392, 84, 0),
    ("renaming", 6): (137225088000, 1080, 0),
}
FIGURE2_N = 3
FIGURE2_RUNS = 1743


def _label(name: str, n: int) -> str:
    return f"{name}-n{n}"


def _outcome(name: str, n: int, decisions) -> tuple[int, int, int]:
    task = get_spec(name).task_factory(n)
    identities = list(range(1, n + 1))
    illegal = sum(
        count
        for outputs, count in decisions.items()
        if not task.is_legal_output(list(outputs), identities)
    )
    return sum(decisions.values()), len(decisions), illegal


class ExploreWorkload:
    def __init__(self, seed: int, seconds: float, workdir) -> None:
        rng = random.Random(seed)
        self.battery = list(BATTERY)
        rng.shuffle(self.battery)
        self.figure2_seed = rng.randrange(1_000)

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        """Nothing beyond importing the layers: each pass compiles."""

    def close(self) -> None:
        pass

    # -- one pass --------------------------------------------------------

    def _serial(self, tracer: Tracer, name: str, n: int) -> dict:
        spec = get_spec(name)
        stats = EngineStats()
        with tracer.span(f"shm.compile.{_label(name, n)}", "shm"):
            started = time.perf_counter()
            factory = make_spec_machine(spec, n, frame_nodes=True)
            compiled = time.perf_counter()
        with tracer.span(f"shm.engine.{_label(name, n)}", "shm") as attrs:
            engine = PrefixSharingEngine(
                factory,
                stats=stats,
                quotient=True,
                relabeler=spec.value_relabel,
            )
            decisions = engine.decided_vectors()
            attrs.update(orbits=stats.orbits, orbit_hits=stats.orbit_hits)
        finished = time.perf_counter()
        return {
            "decisions": decisions,
            "stats": stats,
            "compile_s": compiled - started,
            "engine_s": finished - compiled,
            "seconds": finished - started,
        }

    def _sharded(self, tracer: Tracer, name: str, n: int) -> dict:
        stats = EngineStats()
        with tracer.span(f"shm.parallel.{_label(name, n)}", "shm") as attrs:
            started = time.perf_counter()
            outcome = explore_decided_parallel(
                name, n, jobs=JOBS, stats=stats, quotient=True
            )
            seconds = time.perf_counter() - started
            attrs.update(shards=outcome.shards, orbits=stats.orbits)
        return {
            "decisions": outcome.decisions,
            "stats": stats,
            "seconds": seconds,
            "shards": outcome.shards,
            "pooled": outcome.pooled,
        }

    def run_pass(self, tracer: Tracer) -> dict:
        errors: list[str] = []
        checks = 0

        def check(ok: bool, message: str) -> None:
            nonlocal checks
            checks += 1
            if not ok:
                errors.append(message)

        tracer.new_trace()
        pass_started = time.perf_counter()
        with tracer.span("pass", "bench"):
            # 1. verify
            verify_started = time.perf_counter()
            with tracer.span("analysis.table1", "analysis"):
                ok_table1, _ = table1_matches_paper()
            table1_done = time.perf_counter()
            with tracer.span("analysis.figure1", "analysis"):
                ok_figure1, _ = figure1_matches_paper()
            figure1_done = time.perf_counter()
            with tracer.span("shm.harness", "shm"):
                report = check_algorithm_exhaustive(
                    figure2_task(FIGURE2_N),
                    figure2_renaming(),
                    FIGURE2_N,
                    system_factory=figure2_system_factory(
                        FIGURE2_N, seed=self.figure2_seed
                    ),
                )
            verify_done = time.perf_counter()
            check(ok_table1, "Table 1 regeneration failed")
            check(ok_figure1, "Figure 1 regeneration failed")
            check(
                report.ok and report.runs == FIGURE2_RUNS,
                f"Figure 2 check: ok={report.ok}, runs={report.runs}",
            )

            # 2 + 3. serial explorations
            tables_before = dict(cache_stats()["engine.step_tables"])
            started = time.perf_counter()
            serial = {}
            for name, n in [(name, BATTERY_N) for name in self.battery] + [LARGE]:
                serial[(name, n)] = self._serial(tracer, name, n)
            explore_serial_s = time.perf_counter() - started
            tables_after = cache_stats()["engine.step_tables"]

            # 4. sharded explorations
            started = time.perf_counter()
            sharded = {key: self._sharded(tracer, *key) for key in SHARDED}
            explore_sharded_s = time.perf_counter() - started
            memo_share = cache_stats().get("engine.memo_share", {})
        wall = time.perf_counter() - pass_started

        for label, runs in (("serial", serial), ("sharded", sharded)):
            for key, row in runs.items():
                got = _outcome(*key, row["decisions"])
                check(
                    got == PINNED[key],
                    f"{label} {key}: got {got}, pinned {PINNED[key]}",
                )
        for key, row in sharded.items():
            check(
                row["decisions"] == serial[key]["decisions"] and row["pooled"],
                f"sharded {key}: decisions differ from serial or the pool "
                f"fell back to in-process shards (pooled={row['pooled']})",
            )
        return {
            "wall": wall,
            "verify_s": verify_done - verify_started,
            "table1_s": table1_done - verify_started,
            "figure1_s": figure1_done - table1_done,
            "harness_s": verify_done - figure1_done,
            "explore_serial_s": explore_serial_s,
            "explore_sharded_s": explore_sharded_s,
            "report_runs": report.runs,
            "serial": serial,
            "sharded": sharded,
            "tables": {
                key: tables_after[key] - tables_before.get(key, 0)
                for key in ("nodes", "replays", "frame_merges")
            },
            "memo_share": dict(memo_share),
            "attempted": checks,
            "errors": errors,
        }

    # -- metrics ---------------------------------------------------------

    def _layer_metrics(self, row: dict) -> dict:
        serial_stats = EngineStats()
        compile_s = engine_s = 0.0
        metrics = {}
        for (name, n), entry in row["serial"].items():
            serial_stats.merge(entry["stats"])
            compile_s += entry["compile_s"]
            engine_s += entry["engine_s"]
            metrics[f"shm.engine_s.{_label(name, n)}"] = entry["engine_s"]
        probes = serial_stats.orbits + serial_stats.orbit_hits
        metrics.update(
            {
                "analysis.table1_s": row["table1_s"],
                "analysis.figure1_s": row["figure1_s"],
                "shm.harness_s": row["harness_s"],
                "shm.harness_runs": row["report_runs"],
                "shm.compile_s": compile_s,
                "shm.orbits": serial_stats.orbits,
                "shm.orbit_hits": serial_stats.orbit_hits,
                "shm.lex_pruned": serial_stats.lex_pruned,
                "shm.forks": serial_stats.forks,
                "shm.orbits_per_s": serial_stats.orbits / engine_s,
                "shm.memo_hit_frac": serial_stats.orbit_hits / probes,
                "shm.table_nodes": row["tables"]["nodes"],
                "shm.table_replays": row["tables"]["replays"],
                "shm.frame_merges": row["tables"]["frame_merges"],
            }
        )
        # Shard-merged work comes from the stats each sharded run returns;
        # the serial figures are those of the same (spec, n) above.
        merged, serial = EngineStats(), EngineStats()
        shards = 0
        serial_s = sharded_s = 0.0
        for key, entry in row["sharded"].items():
            merged.merge(entry["stats"])
            serial.merge(row["serial"][key]["stats"])
            shards += entry["shards"]
            sharded_s += entry["seconds"]
            serial_s += row["serial"][key]["seconds"]
        metrics["shm.parallel.orbits"] = merged.orbits
        metrics["shm.parallel.forks"] = merged.forks
        metrics["shm.parallel.shards"] = shards
        metrics["shm.parallel.speedup"] = serial_s / sharded_s
        metrics["shm.parallel.orbit_dup_frac"] = merged.orbits / serial.orbits - 1
        return metrics

    def _memo_share_detail(self, row: dict) -> dict:
        """The memo ring's counters live in the pool workers: the parent's
        ``cache_stats()`` reads all zeros after a sharded run, so report
        them as unavailable instead of as zero."""
        reported = row["memo_share"]
        return {
            f"shm.memo_share.{key}": (
                None if not any(reported.values()) else reported.get(key)
            )
            for key in MEMO_SHARE
        }

    def _bytes_per_orbit(self) -> float:
        """tracemalloc peak over one serial ``wsb-grh`` n=4 exploration,
        divided by the orbits it memoized."""
        tracemalloc.start()
        try:
            row = self._serial(Tracer(False), "wsb-grh", BATTERY_N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / row["stats"].orbits

    def measure(self, traced: bool) -> dict:
        tracer = Tracer(traced)
        row = self.run_pass(tracer)
        unit = {
            "wall": row["wall"],
            "attempted": row["attempted"],
            "failed": len(row["errors"]),
            "errors": row["errors"],
            "detail": self._memo_share_detail(row),
        }
        layers = self._layer_metrics(row)
        if not traced:
            unit["metrics"] = {
                "latency_ms": 1000.0 * row["wall"],
                "verify_s": row["verify_s"],
                "explore_serial_s": row["explore_serial_s"],
                "explore_sharded_s": row["explore_sharded_s"],
            }
            unit["detail"].update(layers)
            return unit
        layers.update(pass_breakdown(tracer))
        layers["shm.bytes_per_orbit"] = self._bytes_per_orbit()
        unit["metrics"] = layers
        unit["tracer"] = tracer
        return unit
