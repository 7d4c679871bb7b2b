"""Tests for the incremental universe store (one SQLite file)."""

import json

import pytest

from repro.universe import (
    SCHEMA_VERSION,
    UniverseStore,
    build_cell,
    build_rectangle,
)
from repro.universe.persist import cell_from_payload, cell_to_payload


def closure(reason="injected closure", certificate=None):
    return {
        "solvability": "wait-free solvable",
        "reason": reason,
        "tier": 4,
        "procedure": "decision-map",
        "certificate_id": "ctest",
        "certificate": certificate or {"kind": "theorem"},
    }


def graph_signature(graph):
    """Comparable dump of a graph: node keys, edges, certificates."""
    return (
        {node.key: (node.solvability, node.mask, node.synonyms) for node in graph.nodes()},
        {(e.source, e.target, e.kind, e.label) for e in graph.edges()},
        dict(graph.certificates),
    )


class TestCellRoundtrip:
    @pytest.mark.parametrize("n,m", [(6, 3), (8, 2), (3, 6), (1, 1)])
    def test_payload_roundtrip_is_identity(self, n, m):
        cell = build_cell(n, m)
        assert cell_from_payload(cell_to_payload(cell)) == cell

    def test_payload_is_json_serializable(self):
        json.dumps(cell_to_payload(build_cell(7, 3)))

    def test_stale_schema_rejected(self):
        payload = cell_to_payload(build_cell(4, 2))
        payload["version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            cell_from_payload(payload)


class TestIncrementalBuild:
    def test_cold_then_warm(self, tmp_path):
        store = UniverseStore(tmp_path / "u")
        cold = store.build(6, 4)
        assert cold.cells_built == cold.cells_total == 24
        assert cold.cells_reused == 0
        warm = store.build(6, 4)
        assert warm.cells_built == 0
        assert warm.cells_reused == 24
        assert warm.seconds < cold.seconds + 1  # sanity; warm is ~free

    def test_widening_builds_only_new_cells(self, tmp_path):
        store = UniverseStore(tmp_path / "u")
        store.build(6, 4)
        widened = store.build(8, 5)
        assert widened.cells_total == 40
        assert widened.cells_reused == 24
        assert widened.cells_built == 16
        assert sorted(store.built_cells()) == [
            (n, m) for n in range(1, 9) for m in range(1, 6)
        ]

    def test_force_rebuilds_everything(self, tmp_path):
        store = UniverseStore(tmp_path / "u")
        store.build(4, 3)
        forced = store.build(4, 3, force=True)
        assert forced.cells_built == forced.cells_total

    def test_force_recreates_the_store_file(self, tmp_path):
        store = UniverseStore(tmp_path / "u")
        store.build(6, 4)
        store.build(4, 3, force=True)
        # A forced build starts from an empty file: only its rectangle.
        assert store.built_cells() == [
            (n, m) for n in range(1, 5) for m in range(1, 4)
        ]
        assert graph_signature(store.load()) == graph_signature(
            build_rectangle(4, 3)
        )

    def test_stats_follow_a_widening_build(self, tmp_path):
        store = UniverseStore(tmp_path / "u")
        store.build(5, 3)
        report = store.build(6, 3)
        assert (report.cells_reused, report.cells_built) == (15, 3)
        stats = store.stats()
        assert stats["nodes"] == build_rectangle(6, 3).node_count
        assert stats["containment_edges"] > 0

    def test_parallel_build_matches_serial(self, tmp_path):
        serial = UniverseStore(tmp_path / "serial")
        serial.build(7, 4)
        parallel = UniverseStore(tmp_path / "parallel")
        report = parallel.build(7, 4, jobs=2)
        assert report.jobs == 2
        assert graph_signature(serial.load()) == graph_signature(parallel.load())


class TestOverrides:
    def test_close_open_overrides_survive_reload(self, tmp_path):
        from repro.core import Solvability
        from repro.decision import DecisionBudget

        store = UniverseStore(tmp_path / "u")
        store.build(6, 6)
        graph = store.load()
        # Simulate a closure: erase a structural verdict on disk is not
        # possible (cells are deterministic), so drive the sweep with a
        # graph whose node was erased and persist its re-derivation.
        graph.override_node((4, 5, 0, 1), "open", "simulated unknown", "")
        from repro.decision import close_open

        report = close_open(graph, DecisionBudget(max_empirical_n=0))
        assert (4, 5, 0, 1) in report.closed

    def test_rerun_with_smaller_budget_keeps_closures(self, tmp_path):
        # A certified closure persisted by one sweep must survive a
        # cheaper re-run (the sweep starts from the applied overrides
        # and the documents are merged, not replaced).
        from repro.decision import DecisionBudget

        store = UniverseStore(tmp_path / "u")
        store.build(4, 3)
        store.apply_closures({(4, 3, 0, 2): closure()}, {})
        store.close_open(DecisionBudget(max_empirical_n=0))
        assert "4,3,0,2" in store.read_overrides()["overrides"]
        node = store.load().node((4, 3, 0, 2))
        assert node.solvability == "wait-free solvable"

    def test_malformed_override_row_is_skipped_at_load(self, tmp_path):
        store = UniverseStore(tmp_path / "u")
        store.build(4, 3)
        store.apply_closures(
            {(4, 3, 0, 2): {"reason": "no solvability"}, (9, 9, 0, 9): closure()},
            {},
        )
        assert graph_signature(store.load()) == graph_signature(
            build_rectangle(4, 3)
        )

    def test_overrides_document_shape(self, tmp_path):
        store = UniverseStore(tmp_path / "u")
        store.build(4, 3)
        assert store.read_overrides() == {}
        store.apply_closures({(4, 3, 0, 2): closure()}, {"sweep": True})
        assert store.read_overrides() == {
            "version": SCHEMA_VERSION,
            "budget": {"sweep": True},
            "overrides": {"4,3,0,2": closure()},
        }

    def test_overrides_applied_at_load(self, tmp_path):
        store = UniverseStore(tmp_path / "u")
        store.build(4, 3)
        store.apply_closures({(4, 3, 0, 2): closure("injected for the test")}, {})
        node = store.load().node((4, 3, 0, 2))
        assert node.solvability == "wait-free solvable"
        assert node.certificate_id == "ctest"
        bare = store.load(apply_overrides=False).node((4, 3, 0, 2))
        assert bare.solvability == "open"

    def test_stats_count_overrides(self, tmp_path):
        store = UniverseStore(tmp_path / "u")
        store.build(4, 3)
        assert store.stats()["overrides"] == 0
        store.apply_closures({(4, 3, 0, 2): closure()}, {})
        assert store.stats()["overrides"] == 1


class TestLoad:
    def test_load_equals_in_memory_build(self, tmp_path):
        store = UniverseStore(tmp_path / "u")
        store.build(7, 5)
        assert graph_signature(store.load()) == graph_signature(
            build_rectangle(7, 5)
        )

    def test_load_clips_to_sub_rectangle(self, tmp_path):
        store = UniverseStore(tmp_path / "u")
        store.build(7, 5)
        clipped = store.load(max_n=5, max_m=3)
        assert clipped.cells == {
            (n, m) for n in range(1, 6) for m in range(1, 4)
        }
        # Cross-family edges are re-derived for the clipped cell set.
        assert graph_signature(clipped) == graph_signature(build_rectangle(5, 3))

    def test_load_empty_store_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no built cells"):
            UniverseStore(tmp_path / "missing").load()

    def test_stats(self, tmp_path):
        store = UniverseStore(tmp_path / "u")
        store.build(5, 3, jobs=0)
        stats = store.stats()
        assert stats["cells"] == 15
        assert stats["max_n"] == 5
        assert stats["max_m"] == 3
        assert stats["nodes"] == build_rectangle(5, 3).node_count
        assert stats["last_build"]["cells_built"] == 15
