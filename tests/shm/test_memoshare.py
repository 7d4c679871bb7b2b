"""Unit tests for the cross-worker orbit-memo exchange.

The ring + adapter (:mod:`repro.shm.memoshare`) are exercised here
single-process: the format and the adapter's gating logic are what can
break silently; true cross-process exchange rides on the same code paths
and is smoke-covered by the parallel quotient tests.
"""

import pickle

import pytest

from repro.shm.engine import get_spec, make_spec_machine
from repro.shm.memoshare import (
    DEFAULT_CAPACITY,
    OrbitMemoRing,
    SharedOrbitMemo,
    drain_entries,
)


class _FakeLock:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


@pytest.fixture
def ring():
    ring = OrbitMemoRing(capacity=64 * 1024, create=True)
    yield ring
    ring.close()
    ring.unlink()


class TestOrbitMemoRing:
    def test_roundtrip_preserves_order_and_bytes(self, ring):
        payloads = [b"alpha", b"", b"\x00" * 100, b"omega"]
        for payload in payloads:
            assert ring.append(payload)
        records, offset = ring.read_new(0)
        assert records == payloads
        assert offset == ring.committed

    def test_incremental_reads_see_only_new_records(self, ring):
        ring.append(b"first")
        records, offset = ring.read_new(0)
        assert records == [b"first"]
        assert ring.read_new(offset) == ([], offset)
        ring.append(b"second")
        records, offset = ring.read_new(offset)
        assert records == [b"second"]

    def test_attach_by_name_shares_the_segment(self, ring):
        ring.append(b"shared")
        attached = OrbitMemoRing(name=ring.name)
        try:
            records, _ = attached.read_new(0)
            assert records == [b"shared"]
        finally:
            attached.close()

    def test_full_segment_rejects_appends(self):
        tiny = OrbitMemoRing(capacity=32, create=True)
        try:
            assert tiny.append(b"x" * 20)
            assert not tiny.append(b"y" * 20)  # would overflow: refused
            records, _ = tiny.read_new(0)
            assert records == [b"x" * 20]
        finally:
            tiny.close()
            tiny.unlink()

    def test_default_capacity_is_sane(self):
        assert DEFAULT_CAPACITY >= 1024 * 1024


def entry(weight, positions=(0, 1)):
    return (tuple(positions), {("a",) * len(positions): weight})


class TestSharedOrbitMemo:
    def test_offer_then_get_roundtrip(self, ring):
        writer = SharedOrbitMemo(ring, _FakeLock(), min_weight=1)
        reader = SharedOrbitMemo(ring, _FakeLock(), min_weight=1)
        key = ((-1, -1), (None,), (0,), ())
        writer.offer(key, entry(5))
        positions, suffixes = reader.get(key)
        assert positions == (0, 1)
        assert suffixes == {("a", "a"): 5}

    def test_reader_skips_own_records_but_imports_others(self, ring):
        # Two adapters in one process: ids are per adapter, not per pid.
        first = SharedOrbitMemo(ring, _FakeLock(), min_weight=1)
        second = SharedOrbitMemo(ring, _FakeLock(), min_weight=1)
        assert first.writer != second.writer
        own, theirs = ((-1,), (), (0,), ()), ((-2,), (), (0,), ())
        first.offer(own, entry(5))
        second.offer(theirs, entry(7))
        assert first.get(theirs) == ((0, 1), {("a", "a"): 7})
        # Its own record was skipped unread, so it never entered the
        # import cache (the engine's memo already holds it).
        assert own not in first._cache
        assert set(first._cache) == {theirs}
        records, _ = ring.read_new(0, skip_writer=first.writer)
        assert [pickle.loads(blob)[0] for blob in records] == [theirs]

    def test_min_weight_gates_publication(self, ring):
        memo = SharedOrbitMemo(ring, _FakeLock(), min_weight=10)
        memo.offer(((-1,), (), (0,), ()), entry(9))
        assert ring.committed == 0
        memo.offer(((-1,), (), (0,), ()), entry(10))
        assert ring.committed > 0

    def test_offers_deduplicate(self, ring):
        memo = SharedOrbitMemo(ring, _FakeLock(), min_weight=1)
        key = ((-1,), (), (0,), ())
        memo.offer(key, entry(5))
        first = ring.committed
        memo.offer(key, entry(5))
        assert ring.committed == first

    def test_full_ring_latches_off_publishing(self):
        tiny = OrbitMemoRing(capacity=8, create=True)
        try:
            memo = SharedOrbitMemo(tiny, _FakeLock(), min_weight=1)
            memo.offer(((-1,), (), (0,), ()), entry(5))
            assert memo._full
            # Latched: later offers return without touching the ring.
            memo.offer(((-2,), (), (0,), ()), entry(50))
            assert tiny.committed == 0
        finally:
            tiny.close()
            tiny.unlink()

    def test_stable_key_translation_against_program(self, ring):
        make_machine = make_spec_machine(
            get_spec("wsb-grh"), 2, frame_nodes=True
        )
        program = make_machine.program
        machine = make_machine()
        machine.step(0)
        key = machine.orbit_key()
        memo = SharedOrbitMemo(ring, _FakeLock(), program=program)
        stable = memo._stable_key(key)
        assert stable is not None
        # Node components become 16-byte digests; negatives pass through.
        for raw, translated in zip(key[0], stable[0]):
            if raw < 0:
                assert translated == raw
            else:
                assert isinstance(translated, bytes) and len(translated) == 16
        assert stable[1:] == key[1:]
        # Same local state, independently compiled program -> same token.
        twin_factory = make_spec_machine(
            get_spec("wsb-grh"), 2, frame_nodes=True
        )
        twin = twin_factory()
        twin.step(0)
        twin_memo = SharedOrbitMemo(
            ring, _FakeLock(), program=twin_factory.program
        )
        assert twin_memo._stable_key(twin.orbit_key()) == stable

    def test_unstable_keys_stay_local(self, ring):
        class NoTokens:
            @staticmethod
            def stable_pc(node):
                return None

        memo = SharedOrbitMemo(
            ring, _FakeLock(), program=NoTokens(), min_weight=1
        )
        key = ((0, 1), (), (0,), ())
        memo.offer(key, entry(5))
        assert ring.committed == 0
        assert memo.get(key) is None

    def test_drain_entries_reads_everything(self, ring):
        memo = SharedOrbitMemo(ring, _FakeLock(), min_weight=1)
        keys = [((-1, i), (), (0,), ()) for i in range(-5, -1)]
        for i, key in enumerate(keys):
            memo.offer(key, entry(i + 1))
        drained = list(drain_entries(ring))
        assert [stable for stable, _, _ in drained] == keys
        assert [sum(s.values()) for _, _, s in drained] == [1, 2, 3, 4]

    def test_entries_survive_pickle_boundary(self, ring):
        # The wire format is pickle; a reader in another process sees
        # exactly these bytes.
        memo = SharedOrbitMemo(ring, _FakeLock(), min_weight=1)
        key = ((-1,), ((1, 2), None), (3,), ())
        memo.offer(key, entry(8))
        (blob,), _ = ring.read_new(0)
        stable, positions, items = pickle.loads(blob)
        assert stable == key
        assert dict(items) == {("a", "a"): 8}
