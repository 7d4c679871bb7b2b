"""Differential pinning: the store file against an independent reference.

The reference never touches disk: every cell is ``build_cell(n, m)``
dumped by ``cell_to_payload``, and the graph is ``assemble`` over those
cells.  The store is built *incrementally* (18x6, then widened to 20x6)
so the comparison covers cells reused across builds, and every cell
payload, node, edge, verdict and certificate read back from
``universe.sqlite`` must equal the reference exactly — with and without
close-open overrides applied.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.universe import (
    HOT_CELLS,
    UniverseStore,
    assemble,
    build_cell,
    canonical_task_key,
    rectangle_cells,
)
from repro.universe.persist import cell_to_payload

MAX_N, MAX_M = 20, 6


def graph_signature(graph):
    """Comparable dump of a graph: node rows, edges, certificates."""
    return (
        {
            node.key: (
                node.solvability,
                node.reason,
                node.mask,
                node.synonyms,
                node.certificate_id,
            )
            for node in graph.nodes()
        },
        {(e.source, e.target, e.kind, e.label) for e in graph.edges()},
        dict(graph.certificate_payloads),
    )


def canonical_json(value):
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def reference():
    """``(n, m) -> UniverseCell`` for the whole rectangle, in memory."""
    return {cell: build_cell(*cell) for cell in rectangle_cells(MAX_N, MAX_M)}


@pytest.fixture(scope="module")
def reference_graph(reference):
    return assemble(reference[cell] for cell in sorted(reference))


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("differential") / "store"
    store = UniverseStore(root)
    store.build(MAX_N - 2, MAX_M)
    widened = store.build(MAX_N, MAX_M)
    assert widened.cells_reused == (MAX_N - 2) * MAX_M
    assert widened.cells_built == 2 * MAX_M
    return store


class TestAgainstReference:
    def test_every_cell_payload_equals_the_reference(self, store, reference):
        payloads = list(store.cell_payloads())
        assert [(p["n"], p["m"]) for p in payloads] == sorted(reference)
        for payload in payloads:
            expected = cell_to_payload(reference[(payload["n"], payload["m"])])
            assert canonical_json(payload) == canonical_json(expected), (
                f"cell ({payload['n']}, {payload['m']}) diverges"
            )

    def test_loaded_graph_equals_the_reference(self, store, reference_graph):
        assert graph_signature(store.load()) == graph_signature(
            reference_graph
        )

    def test_every_point_lookup_equals_the_reference(
        self, store, reference_graph
    ):
        HOT_CELLS.clear()  # every lookup below reads its row cold
        nodes = list(reference_graph.nodes())
        assert len(nodes) > 1000  # the full universe, not a toy slice
        for node in nodes:
            assert store.node_at(*node.key) == node

    def test_every_certificate_equals_the_reference(
        self, store, reference_graph
    ):
        ids = sorted(reference_graph.certificate_payloads)
        assert ids  # the universe carries certificates to compare
        for certificate_id in ids:
            assert canonical_json(
                store.certificate_payload(certificate_id)
            ) == canonical_json(reference_graph.certificate_payload(certificate_id))

    def test_clipped_load_equals_the_reference(self, store, reference):
        clipped = assemble(
            reference[(n, m)] for n, m in sorted(reference) if n <= 7 and m <= 3
        )
        assert graph_signature(store.load(max_n=7, max_m=3)) == graph_signature(
            clipped
        )


class TestPropertyLookups:
    @given(
        n=st.integers(min_value=1, max_value=MAX_N),
        m=st.integers(min_value=1, max_value=MAX_M + 2),
        low=st.integers(min_value=-2, max_value=MAX_N + 2),
        high=st.integers(min_value=-2, max_value=MAX_N + 2),
    )
    def test_arbitrary_point_lookup_agrees(
        self, store, reference_graph, n, m, low, high
    ):
        try:
            key = canonical_task_key(n, m, low, high)
        except ValueError:
            with pytest.raises(ValueError):
                store.node_at(n, m, low, high)
            return
        expected = reference_graph.node(key) if key in reference_graph else None
        assert store.node_at(n, m, low, high) == expected


class TestOverrides:
    """Override rows change exactly the overridden node, on every path."""

    MAX = (8, 4)

    @pytest.fixture
    def closed(self, tmp_path):
        store = UniverseStore(tmp_path / "store")
        store.build(*self.MAX)
        graph = assemble(build_cell(*cell) for cell in rectangle_cells(*self.MAX))
        node = next(
            n for n in graph.nodes() if n.solvability == "open" and n.key[0] == 4
        )
        row = {
            "solvability": "wait-free solvable",
            "reason": "injected closure",
            "tier": 4,
            "procedure": "decision-map",
            "certificate_id": "ctest",
            "certificate": {"kind": "theorem"},
        }
        store.apply_closures({node.key: row}, {"test": True})
        return store, node.key, row

    def reference(self, closed_key=None, row=None):
        graph = assemble(build_cell(*cell) for cell in rectangle_cells(*self.MAX))
        if closed_key is not None:
            graph.override_node(
                closed_key,
                solvability=row["solvability"],
                reason=row["reason"],
                certificate_id=row["certificate_id"],
                certificate_payload=row["certificate"],
            )
        return graph

    def test_load_applies_the_override(self, closed):
        store, key, row = closed
        assert graph_signature(store.load()) == graph_signature(
            self.reference(key, row)
        )

    def test_load_without_overrides_equals_the_plain_reference(self, closed):
        store, _, _ = closed
        assert graph_signature(
            store.load(apply_overrides=False)
        ) == graph_signature(self.reference())

    def test_point_lookups_apply_the_override(self, closed):
        store, key, row = closed
        expected = self.reference(key, row)
        for node in expected.nodes():
            assert store.node_at(*node.key) == node
        assert store.certificate_payload("ctest") == {"kind": "theorem"}
