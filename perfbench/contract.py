"""What ``BENCHMARK.json`` cannot say: which workload owns which metric.

``BENCHMARK.json`` at the repository root names every gated metric and
its unit; ``Benchmark`` reads them from there and nowhere else.  Every
workload reports every end-to-end metric.  Every workload also reports
every per-layer metric in a traced run; a metric of a layer or mechanism
the workload does not exercise reads 0 there.  This module adds only
what the file cannot hold: which workload owns which per-layer metric,
and the per-workload figures that are printed and recorded with each run
but not gated, because they exist for one workload only.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Workloads measured as repeated passes, one per fresh process.
PASS_BASED = ("explore", "close-open")

#: Per-workload end-to-end figures and their units, printed and recorded
#: but not gated.
WORKLOAD_METRICS = {
    "explore": {"verify_s": "s", "explore_serial_s": "s", "explore_sharded_s": "s"},
    "close-open": {"build_s": "s", "sweep_s": "s", "publish_s": "s"},
    "serve": {"serve_p50_ms": "ms", "serve_p99_ms": "ms", "serve_max_rps": "1/s"},
}

SPECS = ("wsb-n4", "election-n4", "renaming-n4", "wsb-grh-n4", "renaming-n6")
ENDPOINTS = ("decide", "cones", "reduction-path", "batch", "frontier")
MEMO_SHARE = ("publishes", "imports", "hits", "unstable_keys", "full_drops")

#: Units of the other ungated figures a run prints.
DETAIL_UNITS = {
    "fail_frac": "ratio",
    "trace.spans": "count",
    "trace.span_cost_us": "us",
    "shm.parallel.orbits": "count",
    "shm.parallel.forks": "count",
    **{f"shm.memo_share.{key}": "count" for key in MEMO_SHARE},
}

#: Per-layer metrics each workload owns (``universe.load_s`` is shared).
#: The per-layer metrics of ``BENCHMARK.json`` that no workload owns are
#: common to all of them.
OWNED_LAYER = {
    "explore": (
        "analysis.table1_s",
        "analysis.figure1_s",
        "shm.harness_s",
        "shm.harness_runs",
        "shm.compile_s",
        *(f"shm.engine_s.{spec}" for spec in SPECS),
        "shm.orbits_per_s",
        "shm.orbits",
        "shm.orbit_hits",
        "shm.lex_pruned",
        "shm.forks",
        "shm.memo_hit_frac",
        "shm.table_nodes",
        "shm.table_replays",
        "shm.frame_merges",
        "shm.bytes_per_orbit",
        "shm.parallel.shards",
        "shm.parallel.speedup",
        "shm.parallel.orbit_dup_frac",
    ),
    "close-open": (
        "universe.build_s",
        "universe.cells",
        "universe.nodes",
        "universe.edges",
        "decision.close_open_s",
        "decision.open_before",
        "decision.open_after",
        "sweep.sat_s",
        "sweep.exhaustive_s",
        "sweep.sat_conflicts",
        "sweep.sat_decisions",
        "sweep.exhaustive_assignments",
        "sweep.useful_frac",
        "sat.complex_s",
        "sat.encode_s",
        "sat.vars",
        "sat.clauses",
        "sat.solve_s",
        "sat.certify_s",
        "universe.pack_s",
        "universe.load_s",
        "decision.check_s",
        "decision.certificates",
    ),
    "serve": (
        *(f"serve.service_ms.{endpoint}" for endpoint in ENDPOINTS),
        "serve.transport_ms",
        "serve.busy_frac",
        "serve.shed",
        "serve.timeouts",
        "serve.malformed",
        "serve.not_modified_frac",
        "serve.gen_late_ms",
        "serve.gen_cpu_s",
        "universe.hot_hit_frac",
        "decision.fallback_frac",
        *(f"serve.handle_ms.{endpoint}" for endpoint in ENDPOINTS),
        "serve.serialize_ms",
        "universe.node_at_us",
        "universe.cone_ms",
        "universe.path_ms",
        "universe.frontier_ms",
        "universe.load_s",
        "serve.server_rss_mb",
    ),
}


class Benchmark:
    """The workloads and gated metrics of ``BENCHMARK.json``.

    Raises ``ValueError`` when the file and this module disagree: a
    workload either side lacks, or an owned metric the file does not
    list.
    """

    def __init__(self, path: Path = BENCHMARK) -> None:
        document = json.loads(path.read_text(encoding="utf-8"))
        self.workloads = tuple(row["name"] for row in document["workloads"])
        self.end_to_end = {row["name"]: row["unit"] for row in document["end_to_end"]}
        self.per_layer = {row["name"]: row["unit"] for row in document["per_layer"]}
        problems = []
        if set(self.workloads) != set(OWNED_LAYER):
            problems.append(
                f"workloads {sorted(self.workloads)} != {sorted(OWNED_LAYER)}"
            )
        owned = {name for names in OWNED_LAYER.values() for name in names}
        unknown = sorted(owned - set(self.per_layer))
        if unknown:
            problems.append(f"owned metrics missing from per_layer: {unknown}")
        if problems:
            raise ValueError(
                f"{path.name} disagrees with contract.py: {problems}"
            )
        self.common_layer = tuple(name for name in self.per_layer if name not in owned)

    def required(self, workload: str, trace: bool) -> set[str]:
        """The metrics a run of ``workload`` must report."""
        if trace:
            return set(self.common_layer) | set(OWNED_LAYER[workload])
        return set(self.end_to_end) | set(WORKLOAD_METRICS[workload])

    def unit(self, name: str) -> str:
        """The unit of any metric a run prints ('' for one without)."""
        for table in (
            self.end_to_end,
            self.per_layer,
            DETAIL_UNITS,
            *WORKLOAD_METRICS.values(),
        ):
            if name in table:
                return table[name]
        return ""
