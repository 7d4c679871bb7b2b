"""Tests for immediate-snapshot protocol complexes."""

import pytest

from repro.topology import (
    ISProtocolComplex,
    one_round_states,
    ordered_bell_number,
    ordered_partitions,
)
from repro.topology.views import base_view


class TestOrderedPartitions:
    def test_counts_are_fubini_numbers(self):
        for n, expected in [(0, 1), (1, 1), (2, 3), (3, 13), (4, 75)]:
            assert len(list(ordered_partitions(range(n)))) == expected
            assert ordered_bell_number(n) == expected

    def test_partitions_cover_all_elements(self):
        for partition in ordered_partitions(range(3)):
            members = set()
            for block in partition:
                assert block  # no empty blocks
                assert not (members & block)  # disjoint
                members |= block
            assert members == {0, 1, 2}

    def test_no_duplicates(self):
        partitions = list(ordered_partitions(range(3)))
        assert len(partitions) == len(set(partitions))


class TestOneRound:
    def test_views_are_prefix_unions(self):
        states = {pid: base_view(pid + 1) for pid in range(3)}
        partition = (frozenset({1}), frozenset({0, 2}))
        new_states = one_round_states(states, partition)
        # p1 (first block) sees itself only.
        assert new_states[1][1] == ((1, base_view(2)),)
        # p0 and p2 see everybody.
        assert len(new_states[0][1]) == 3
        assert new_states[0] == new_states[2]

    def test_facet_count(self):
        for n in (2, 3, 4):
            complex_ = ISProtocolComplex(n, 1)
            assert complex_.facet_count() == complex_.expected_facet_count()

    def test_one_round_structure(self):
        for n in (2, 3, 4):
            simplicial = ISProtocolComplex(n, 1).to_simplicial()
            assert simplicial.is_pure()
            assert simplicial.dimension == n - 1
            assert simplicial.is_chromatic(ISProtocolComplex.color)
            assert simplicial.is_pseudomanifold()
            assert simplicial.is_strongly_connected()


class TestIterated:
    def test_facet_counts_compose(self):
        assert ISProtocolComplex(2, 3).facet_count() == 27
        assert ISProtocolComplex(3, 2).facet_count() == 169

    def test_iterated_structure(self):
        for n, rounds in [(2, 2), (2, 3), (3, 2)]:
            simplicial = ISProtocolComplex(n, rounds).to_simplicial()
            assert simplicial.is_pure()
            assert simplicial.is_chromatic(ISProtocolComplex.color)
            assert simplicial.is_pseudomanifold()
            assert simplicial.is_strongly_connected()

    def test_solo_vertices_one_per_process(self):
        for n, rounds in [(2, 1), (3, 1), (3, 2)]:
            complex_ = ISProtocolComplex(n, rounds)
            solo = complex_.solo_vertices()
            assert len(solo) == n
            assert {pid for pid, _view in solo} == set(range(n))

    def test_canonical_classes_cover_vertices(self):
        complex_ = ISProtocolComplex(3, 1)
        classes = complex_.canonical_classes()
        assert set(classes) == complex_.vertices()
        # 6 classes at one round: (seen k, rank j) for 1<=j<=k<=3.
        assert len(set(classes.values())) == 6

    def test_accessors_are_computed_once_and_read_only(self):
        complex_ = ISProtocolComplex(3, 1)
        assert complex_.facets() is complex_.facets()
        assert complex_.vertices() is complex_.vertices()
        assert complex_.canonical_classes() is complex_.canonical_classes()
        assert isinstance(complex_.facets(), tuple)
        assert isinstance(complex_.vertices(), frozenset)
        with pytest.raises(TypeError):
            complex_.canonical_classes()[(0, None)] = None

    def test_solo_classes_collapse(self):
        from repro.topology.views import canonical_local_state

        complex_ = ISProtocolComplex(3, 2)
        classes = {
            canonical_local_state(pid, view)
            for pid, view in complex_.solo_vertices()
        }
        assert len(classes) == 1

    def test_validation(self):
        import pytest

        with pytest.raises(ValueError):
            ISProtocolComplex(0, 1)
        with pytest.raises(ValueError):
            ISProtocolComplex(2, 0)
