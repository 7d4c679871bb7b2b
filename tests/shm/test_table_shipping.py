"""Tests for step-table pre-tracing: export in the parent, import in
pool workers.

The parallel quotient path traces the step table once in the parent and
ships it (:meth:`CompiledProtocol.export_table` /
:meth:`~CompiledProtocol.import_table`) so workers do not re-pay the
tracing cost — and, more importantly, so their node numbering matches
the parent's, which keeps the shared orbit memo's stable keys dense.
These tests pin the roundtrip, the structural-mismatch refusal, and the
behavioural identity of an imported table.
"""

import pickle

from repro.shm.engine import get_spec, make_spec_machine


def traced_factory(name="wsb-grh", n=3, frame_nodes=True):
    make_machine = make_spec_machine(
        get_spec(name), n, frame_nodes=frame_nodes
    )
    # Trace a few schedules so the export is non-trivial.
    for first in range(n):
        machine = make_machine()
        machine.step(first)
        while machine.enabled_pids():
            machine.step(min(machine.enabled_pids()))
    return make_machine


class TestExportImport:
    def test_roundtrip_restores_every_array(self):
        donor = traced_factory().program
        table = pickle.loads(pickle.dumps(donor.export_table()))
        fresh = make_spec_machine(
            get_spec("wsb-grh"), 3, frame_nodes=True
        ).program
        assert len(fresh.ops) < len(donor.ops)  # untraced so far
        assert fresh.import_table(table)
        assert fresh.ops == donor.ops
        assert fresh.edges == donor.edges
        assert fresh.parents == donor.parents
        assert fresh.decisions == donor.decisions

    def test_import_refuses_structural_mismatch(self):
        donor = traced_factory("wsb-grh", 3).program
        table = donor.export_table()
        other_size = make_spec_machine(
            get_spec("wsb-grh"), 2, frame_nodes=True
        ).program
        other_spec = make_spec_machine(
            get_spec("renaming"), 3, frame_nodes=True
        ).program
        plain = make_spec_machine(get_spec("wsb-grh"), 3).program
        before = list(plain.ops)
        assert not other_size.import_table(table)
        assert not other_spec.import_table(table)
        assert not plain.import_table(table)  # frame_nodes differs
        assert plain.ops == before  # refusal leaves the table untouched

    def test_imported_table_explores_identically(self):
        from repro.shm.engine import PrefixSharingEngine

        donor_factory = traced_factory()
        table = donor_factory.program.export_table()
        importer = make_spec_machine(
            get_spec("wsb-grh"), 3, frame_nodes=True
        )
        assert importer.program.import_table(table)
        reference = PrefixSharingEngine(
            make_spec_machine(get_spec("wsb-grh"), 3)
        ).decided_vectors()
        assert PrefixSharingEngine(importer).decided_vectors() == reference

    def test_import_preserves_stable_tokens(self):
        donor_factory = traced_factory()
        donor = donor_factory.program
        table = pickle.loads(pickle.dumps(donor.export_table()))
        importer = make_spec_machine(
            get_spec("wsb-grh"), 3, frame_nodes=True
        ).program
        assert importer.import_table(table)
        tokens = 0
        for node in range(len(donor.ops)):
            assert importer.stable_pc(node) == donor.stable_pc(node)
            if donor.stable_pc(node) is not None:
                tokens += 1
        assert tokens > 0


class TestStablePc:
    def test_tokens_match_across_independent_programs(self):
        first = traced_factory().program
        second = traced_factory().program
        # Same lazily-traced schedules -> same node numbering; the test
        # is that the *digest* agrees without sharing any state.
        matched = 0
        for node in range(min(len(first.ops), len(second.ops))):
            token = first.stable_pc(node)
            if token is not None:
                assert token == second.stable_pc(node)
                matched += 1
        assert matched > 0

    def test_distinct_nodes_distinct_tokens(self):
        program = traced_factory().program
        tokens = [
            program.stable_pc(node)
            for node in range(len(program.ops))
            if program.stable_pc(node) is not None
        ]
        assert len(tokens) == len(set(tokens))

    def test_no_frame_nodes_means_no_tokens(self):
        program = traced_factory(frame_nodes=False).program
        assert all(
            program.stable_pc(node) is None
            for node in range(len(program.ops))
        )
