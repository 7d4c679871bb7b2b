"""Differential pinning: closed-form cells against the object-path oracle.

``build_cell`` builds each family from parameters and masks alone and
takes its cover edges in integer ops.  The oracle
(``reference_cell.py``) is the family-store + networkx builder it
replaced; every cell of the n <= 12, m <= 8 rectangle must dump to the
same ``cell_to_payload`` bytes, key order included.  The n <= 30, m <= 8
store that the close-open benchmark builds is pinned by its counts, its
store fingerprint and a digest of every stored cell payload.
"""

import hashlib
import json

import networkx as nx
import pytest

from repro.core import feasible_bound_pairs, kernel_vectors
from repro.core import store as family_store
from repro.universe import UniverseStore, build_cell, kernel_bitmasks, rectangle_cells
from repro.universe.persist import cell_to_payload

from .reference_cell import reference_build_cell, reference_kernel_bitmasks

ORACLE_N, ORACLE_M = 12, 8

#: The close-open benchmark's rectangle, as built by the object path.
STORE_N, STORE_M = 30, 8
STORE_COUNTS = {"cells": 240, "nodes": 5797, "containment_edges": 8279}
STORE_FINGERPRINT = (
    "be44c93a284af62b8edcdf388b847aef5717c23df9932d320cd4fd2525a8ac7f"
)
#: sha256 of ``json.dumps(payloads, sort_keys=True)`` over every stored
#: cell payload in ascending ``(n, m)``.
PAYLOAD_DIGEST = (
    "7b4effa74ae833e99a168822c4ef968cd8dc1ddac7b7cc4607fd78546ef5796c"
)


@pytest.mark.parametrize("n,m", rectangle_cells(ORACLE_N, ORACLE_M))
def test_cell_payload_is_byte_identical_to_the_object_path(n, m):
    fast = json.dumps(cell_to_payload(build_cell(n, m)))
    reference = json.dumps(cell_to_payload(reference_build_cell(n, m)))
    assert fast == reference


@pytest.mark.parametrize("n,m", rectangle_cells(ORACLE_N, ORACLE_M))
def test_masks_match_the_per_column_scan_on_every_pair(n, m):
    pairs = feasible_bound_pairs(n, m)
    assert kernel_bitmasks(n, m, pairs) == reference_kernel_bitmasks(n, m, pairs)


@pytest.mark.parametrize("n,m", [(6, 3), (12, 4), (20, 5), (30, 8), (9, 17)])
def test_kernel_count_is_the_mask_popcount(n, m):
    for node in build_cell(n, m).nodes:
        assert node.kernel_count == node.mask.bit_count()
        assert node.kernel_count == len(kernel_vectors(*node.key))


def test_build_touches_neither_family_store_nor_networkx(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the cell build left the closed-form path")

    monkeypatch.setattr(family_store, "build_family_record", forbidden)
    monkeypatch.setattr(nx, "transitive_reduction", forbidden)
    monkeypatch.setattr(nx, "DiGraph", forbidden)
    family_store.clear_family_store()
    for n, m in [(6, 3), (10, 4), (7, 13)]:
        kernel_bitmasks(n, m, feasible_bound_pairs(n, m))
        assert build_cell(n, m).nodes
    assert family_store.get_store().cache_info()["families"] == 0


def test_full_store_is_pinned(tmp_path):
    store = UniverseStore(tmp_path / "store")
    store.build(STORE_N, STORE_M)
    stats = store.stats()
    assert {key: stats[key] for key in STORE_COUNTS} == STORE_COUNTS
    assert store.fingerprint() == STORE_FINGERPRINT
    payloads = list(store.cell_payloads())
    digest = hashlib.sha256(json.dumps(payloads, sort_keys=True).encode())
    assert digest.hexdigest() == PAYLOAD_DIGEST
