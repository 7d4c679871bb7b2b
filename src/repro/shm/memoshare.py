"""Cross-worker orbit-memo exchange over ``multiprocessing.shared_memory``.

Subtree-parallel exploration (:mod:`repro.shm.parallel`) partitions the
schedule tree, and partitioning used to cost exactly what the module
docstring warned about: per-worker memos lose cross-subtree sharing —
two shards that converge on the same global state each explore its whole
future.  This module restores the sharing without serializing the
workers:

* :class:`OrbitMemoRing` — a fixed-capacity append-only record log in a
  shared-memory segment.  One writer lock guards appends (writers are
  rare: only finished orbit entries above a weight threshold publish);
  readers are lock-free — they re-read the committed-bytes header and
  consume any records beyond their own offset, which is safe because
  records are immutable once the header advances past them.  When the
  segment fills, publishing simply stops: the exchange is a cache, never
  a source of truth.

* :class:`SharedOrbitMemo` — the engine-facing adapter
  (:class:`~repro.shm.engine.PrefixSharingEngine` ``shared_memo``).  It
  translates orbit keys into **process-stable** form (trie node ids are
  allocation-ordered and worker-local; frame-signature digests
  (:meth:`~repro.shm.compiled.CompiledProtocol.stable_pc`) name the local
  state itself) through a memoised node -> token map, keeps a local
  cache of everything read so far, and polls the ring every
  ``poll_interval`` lookups rather than per miss.  Keys containing an
  unsignable node are neither published nor consulted — they stay
  worker-local, which is always sound.

Each record carries the id of the adapter that wrote it, so a reader
skips its own records without unpickling them.  Payloads are pickled
``(stable key, positions, suffix items)`` triples — the same
suffix-counter representation the engine memoizes, so a remote hit
replays exactly like a local one.
"""

from __future__ import annotations

import itertools
import os
import pickle
import struct
from typing import Any, Iterable

from .compiled import LazyTable

__all__ = [
    "OrbitMemoRing",
    "SharedOrbitMemo",
    "attach_shared_memo",
    "fold_share_counters",
    "share_counters",
]

_HEADER = struct.Struct("<Q")  # committed payload bytes past the header
_RECORD = struct.Struct("<IQ")  # per-record payload length, writer id

#: Per-process source of adapter ids; combined with the pid, an id names
#: one :class:`SharedOrbitMemo` across every process attached to a ring.
_ADAPTER_IDS = itertools.count(1)

#: Default segment capacity.  Entries are small (a key + a few dozen
#: suffix pairs, ~1 KiB pickled); 16 MiB holds the heavy shared core of
#: an n=5 exploration comfortably.
DEFAULT_CAPACITY = 16 * 1024 * 1024

#: Process-wide exchange counters (registered with core.cache_config).
_SHARE_TOTALS = {
    "publishes": 0,  # entries appended to the ring
    "imports": 0,  # entries read off the ring into the local cache
    "hits": 0,  # engine lookups served from the exchange
    "unstable_keys": 0,  # keys skipped: some node had no stable token
    "full_drops": 0,  # publishes dropped because the segment was full
    "attach_failures": 0,  # workers that could not attach to the ring
}


def share_counters() -> dict:
    """A snapshot of this process's exchange counters."""
    return dict(_SHARE_TOTALS)


def _register_share_counters() -> None:
    from ..core.cache_config import register_counters

    def _clear() -> None:
        for key in _SHARE_TOTALS:
            _SHARE_TOTALS[key] = 0

    try:
        register_counters("engine.memo_share", share_counters, _clear)
    except ValueError:  # pragma: no cover - double import guard
        pass


_register_share_counters()


class OrbitMemoRing:
    """Append-only record log in one shared-memory segment.

    Layout: ``[u64 committed][record]*`` where each record is
    ``[u32 length][u64 writer][payload]``.  ``committed`` counts
    payload-region bytes and is advanced *after* the record bytes are in
    place, so a reader that trusts the header never sees a torn record.  Appends must be
    serialized by the caller (one ``multiprocessing.Lock`` across all
    writers); reads need no lock.
    """

    def __init__(
        self,
        name: str | None = None,
        capacity: int = DEFAULT_CAPACITY,
        create: bool = False,
    ):
        from multiprocessing import shared_memory

        if create:
            self._shm = shared_memory.SharedMemory(
                create=True, size=_HEADER.size + capacity
            )
            _HEADER.pack_into(self._shm.buf, 0, 0)
        else:
            if name is None:
                raise ValueError("attaching needs the segment name")
            self._shm = shared_memory.SharedMemory(name=name)
        self.capacity = self._shm.size - _HEADER.size

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def committed(self) -> int:
        return _HEADER.unpack_from(self._shm.buf, 0)[0]

    def append(self, payload: bytes, writer: int = 0) -> bool:
        """Append one record tagged ``writer``; False when the segment is
        full.

        The caller must hold the single writer lock across the
        read-committed / write / advance-committed sequence.
        """
        committed = self.committed
        need = _RECORD.size + len(payload)
        if committed + need > self.capacity:
            return False
        offset = _HEADER.size + committed
        buf = self._shm.buf
        _RECORD.pack_into(buf, offset, len(payload), writer)
        buf[offset + _RECORD.size : offset + need] = payload
        _HEADER.pack_into(buf, 0, committed + need)
        return True

    def read_new(
        self, offset: int, skip_writer: int | None = None
    ) -> tuple[list[bytes], int]:
        """Records appended past ``offset``, except those ``skip_writer``
        wrote; returns them + the new offset."""
        committed = self.committed
        out: list[bytes] = []
        buf = self._shm.buf
        while offset < committed:
            start = _HEADER.size + offset
            length, writer = _RECORD.unpack_from(buf, start)
            if writer != skip_writer:
                body = start + _RECORD.size
                out.append(bytes(buf[body : body + length]))
            offset += _RECORD.size + length
        return out, offset

    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:  # creator-only
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class SharedOrbitMemo:
    """Engine adapter: stable-key translation + cached ring polling.

    Args:
        ring: the attached :class:`OrbitMemoRing`.
        lock: the shared writer lock (``multiprocessing.Lock``).
        program: the worker's :class:`~repro.shm.compiled.CompiledProtocol`
            — supplies :meth:`~repro.shm.compiled.CompiledProtocol.stable_pc`
            for key translation.  None means keys are used as-is (they
            must then already be process-stable; tests use this).
        min_weight: publish only entries whose suffix counts sum to at
            least this many logical runs — tiny subtrees cost more to
            ship than to recompute.
        poll_interval: consult the ring for new records once per this
            many ``get`` calls (plus once up front).  A poll that finds
            nothing new reads one header word, so polling often is cheap,
            and entries imported sooner save the reader duplicate work.
    """

    def __init__(
        self,
        ring: OrbitMemoRing,
        lock: Any,
        program: Any = None,
        min_weight: int = 8,
        poll_interval: int = 32,
    ):
        self._ring = ring
        self._lock = lock
        self._min_weight = min_weight
        self._poll_interval = poll_interval
        self._countdown = 0
        self._offset = 0
        self._full = False
        self._cache: dict[Any, tuple] = {}
        self._published: set = set()
        #: This adapter's id on the ring: its own records are skipped.
        self.writer = (os.getpid() << 32) | next(_ADAPTER_IDS)
        #: node -> stable token (negative program counters stay as-is)
        self._tokens = None
        if program is not None:
            stable_pc = program.stable_pc
            self._tokens = LazyTable(
                lambda node: node if node < 0 else stable_pc(node)
            )

    def _stable_key(self, key: tuple) -> tuple | None:
        tokens = self._tokens
        if tokens is None:
            return key
        pcs = tuple(map(tokens.__getitem__, key[0]))
        if None in pcs:
            _SHARE_TOTALS["unstable_keys"] += 1
            return None
        return (pcs,) + key[1:]

    def _poll(self) -> None:
        records, self._offset = self._ring.read_new(
            self._offset, skip_writer=self.writer
        )
        for blob in records:
            stable, positions, items = pickle.loads(blob)
            if stable not in self._cache:
                self._cache[stable] = (positions, dict(items))
                _SHARE_TOTALS["imports"] += 1

    def get(self, key: tuple) -> tuple | None:
        """The entry another worker published for this orbit, if any."""
        if self._countdown <= 0:
            self._poll()
            self._countdown = self._poll_interval
        self._countdown -= 1
        stable = self._stable_key(key)
        if stable is None:
            return None
        entry = self._cache.get(stable)
        if entry is not None:
            _SHARE_TOTALS["hits"] += 1
        return entry

    def offer(self, key: tuple, entry: tuple) -> None:
        """Publish one finished orbit entry (weight-gated, deduplicated)."""
        if self._full:
            return
        positions, suffixes = entry
        if sum(suffixes.values()) < self._min_weight:
            return
        stable = self._stable_key(key)
        if stable is None or stable in self._published or stable in self._cache:
            return
        blob = pickle.dumps(
            (stable, positions, list(suffixes.items())), protocol=4
        )
        with self._lock:
            appended = self._ring.append(blob, self.writer)
        self._published.add(stable)
        if appended:
            _SHARE_TOTALS["publishes"] += 1
        else:
            self._full = True
            _SHARE_TOTALS["full_drops"] += 1


def fold_share_counters(delta: dict) -> None:
    """Add another process's exchange-counter delta into this one's (a
    pool worker's counters otherwise never reach the parent)."""
    for key, value in delta.items():
        _SHARE_TOTALS[key] = _SHARE_TOTALS.get(key, 0) + value


def attach_shared_memo(
    ring_name: str, lock: Any, program: Any
) -> SharedOrbitMemo | None:
    """Worker-side adapter over an existing ring; None when the segment
    cannot be attached (counted as ``attach_failures``: the worker then
    explores with its own memo only, which is always sound)."""
    try:
        ring = OrbitMemoRing(name=ring_name)
    except Exception:
        _SHARE_TOTALS["attach_failures"] += 1
        return None
    return SharedOrbitMemo(ring, lock, program=program)


def drain_entries(ring: OrbitMemoRing) -> Iterable[tuple]:
    """All (stable key, positions, suffix dict) entries currently in the
    ring — observability/test helper, not an engine path."""
    records, _ = ring.read_new(0)
    for blob in records:
        stable, positions, items = pickle.loads(blob)
        yield stable, positions, dict(items)
