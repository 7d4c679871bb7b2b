"""Regression suite for the cached read path (``open_readonly``).

The bug this pins: query-path call sites used to construct a throwaway
:class:`UniverseStore` per call, re-reading the store every time.
``open_readonly`` memoizes the store per resolved root, the hot-node LRU
makes warm point lookups file-free, and ``load_cached`` memoizes the
assembled graph against the store fingerprint — so a warm lookup reads
*zero* store rows, asserted here both by poisoning the store file's read
entry point and by the ``universe.hot_cells`` cache counters.
"""

import pytest

from repro.core.cache_config import cache_stats
from repro.universe import UniverseStore, canonical_task_key
from repro.universe.persist import HOT_CELLS


def hot_key(store, n, m, low, high):
    return (str(store.root), store.fingerprint()) + canonical_task_key(
        n, m, low, high
    )


def hot_cell_counters():
    return cache_stats()["universe.hot_cells"]


@pytest.fixture
def root(tmp_path):
    store = UniverseStore(tmp_path / "store")
    store.build(6, 3)
    return tmp_path / "store"


class TestOpenReadonly:
    def test_same_instance_per_root(self, root):
        first = UniverseStore.open_readonly(root)
        second = UniverseStore.open_readonly(root)
        assert first is second

    def test_relative_and_absolute_roots_share_one_instance(
        self, root, monkeypatch
    ):
        monkeypatch.chdir(root.parent)
        assert UniverseStore.open_readonly(
            "store"
        ) is UniverseStore.open_readonly(root)

    def test_load_cached_returns_the_same_graph_object(self, root):
        store = UniverseStore.open_readonly(root)
        assert store.load_cached() is store.load_cached()


class TestWarmLookupIsParseFree:
    def test_zero_store_reads_when_warm(self, root, monkeypatch):
        store = UniverseStore.open_readonly(root)
        cold = store.node_at(6, 3, 1, 4)
        assert cold is not None

        # Warm path: poison the store file's one read entry point.  A
        # warm lookup must not touch it.
        def forbidden(*args, **kwargs):
            raise AssertionError("warm lookup read the store file")

        monkeypatch.setattr(store._db, "rows", forbidden)
        before = hot_cell_counters()
        warm = store.node_at(6, 3, 1, 4)
        after = hot_cell_counters()
        assert warm == cold
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_fresh_node_misses_once_then_hits(self, root):
        store = UniverseStore.open_readonly(root)
        HOT_CELLS.pop(hot_key(store, 5, 3, 1, 5))
        before = hot_cell_counters()
        store.node_at(5, 3, 1, 5)  # cold: one indexed store row
        middle = hot_cell_counters()
        assert middle["misses"] == before["misses"] + 1
        store.node_at(5, 3, 1, 5)  # warm: served from the hot-node LRU
        after = hot_cell_counters()
        assert after["hits"] == middle["hits"] + 1
        assert after["misses"] == middle["misses"]

    def test_repeated_open_readonly_does_not_reload_graph(self, root):
        graph = UniverseStore.open_readonly(root).load_cached()
        again = UniverseStore.open_readonly(root)
        assert again.load_cached() is graph


class TestStalenessInvalidation:
    def test_rebuild_is_picked_up_on_next_open(self, root):
        store = UniverseStore.open_readonly(root)
        graph = store.load_cached()
        assert (8, 3) not in graph.cells
        UniverseStore(root).build(8, 3)  # widen out-of-band
        reopened = UniverseStore.open_readonly(root)
        assert reopened is store  # same memoized instance...
        fresh = reopened.load_cached()
        assert fresh is not graph  # ...but the stale graph was dropped
        assert (8, 3) in fresh.cells
        assert reopened.node_at(8, 3, 1, 8) is not None

    def test_override_written_out_of_band_is_picked_up(self, root):
        store = UniverseStore.open_readonly(root)
        before = store.node_at(6, 3, 1, 4)
        assert before.solvability == "open"
        UniverseStore(root).apply_closures(
            {
                (6, 3, 1, 4): {
                    "solvability": "not wait-free solvable",
                    "reason": "injected closure",
                    "certificate_id": "",
                    "certificate": None,
                }
            },
            {},
        )
        after = UniverseStore.open_readonly(root).node_at(6, 3, 1, 4)
        assert after.solvability == "not wait-free solvable"

    def test_hot_cells_are_fingerprint_keyed(self, root):
        # Entries cached before a mutation can never serve the new
        # store: the fingerprint in the key changed.
        store = UniverseStore.open_readonly(root)
        old_key = hot_key(store, 6, 3, 1, 4)
        store.node_at(6, 3, 1, 4)
        assert HOT_CELLS.peek(old_key) is not None
        UniverseStore(root).build(7, 3)
        reopened = UniverseStore.open_readonly(root)
        assert hot_key(reopened, 6, 3, 1, 4) != old_key

    def test_unchanged_store_keeps_its_caches_across_opens(self, root):
        store = UniverseStore.open_readonly(root)
        store.node_at(6, 3, 1, 4)
        fingerprint = store.fingerprint()
        UniverseStore.open_readonly(root)  # revalidation: no change
        assert store._fingerprint == fingerprint
        assert HOT_CELLS.peek(hot_key(store, 6, 3, 1, 4)) is not None
