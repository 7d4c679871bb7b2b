"""The universe store's single SQLite file, ``<store>/universe.sqlite``.

Layout (WAL mode)::

    meta(key, value)                      -- schema version, content
                                          -- fingerprint, overrides
                                          -- envelope, last build
    cells(n, m, node_count, edge_count, edges)
                                          -- one row per built (n, m); the
                                          -- containment edges ride as one
                                          -- JSON array
    nodes(n, m, low, high, idx, payload)  -- one row per universe node
    certificates(n, m, cert_id, payload)  -- per-cell certificate payloads
    overrides(node_key, payload)          -- close-open verdict rows
    decisions(n, m, low, high, payload)   -- the decide cache

Every write runs in one ``BEGIN IMMEDIATE`` transaction, so a crash at
any instant leaves the file at its last commit: a cell is either whole
or absent, and override rows land together with their decide-cache rows
or not at all.  Writers that change content (a cell, the overrides)
recompute the content fingerprint inside the same transaction and store
it in ``meta``, so a reader revalidates with one row read.

One :class:`StoreFile` exists per file and process (:meth:`StoreFile.at`),
shared by the universe store and the decision cache, so a write can span
both.  Its connection is opened lazily and never crosses a process or a
replaced file: a fork, or the file being deleted and rebuilt at the same
path, makes the next use reconnect.  No read creates the file; a missing
file reads as an empty store.  Everything SQLite raises surfaces as
:class:`StoreError`, naming the file and the rebuild command.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

from ..testing.faults import FAULTS, FaultError

#: The store file inside a store directory.
STORE_FILENAME = "universe.sqlite"

#: Bump when the file layout or the cell payload layout changes; a
#: mismatched file makes every reader raise until ``build --force``.
#: 2: decision-pipeline verdicts with certificate ids and per-cell
#: certificate payloads.
SCHEMA_VERSION = 2

_DDL = """
CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS cells (
    n INTEGER NOT NULL, m INTEGER NOT NULL,
    node_count INTEGER NOT NULL, edge_count INTEGER NOT NULL,
    edges TEXT NOT NULL,
    PRIMARY KEY (n, m)
);
CREATE TABLE IF NOT EXISTS nodes (
    n INTEGER NOT NULL, m INTEGER NOT NULL,
    low INTEGER NOT NULL, high INTEGER NOT NULL,
    idx INTEGER NOT NULL, payload TEXT NOT NULL,
    PRIMARY KEY (n, m, low, high)
);
CREATE TABLE IF NOT EXISTS certificates (
    n INTEGER NOT NULL, m INTEGER NOT NULL,
    cert_id TEXT NOT NULL, payload TEXT NOT NULL,
    PRIMARY KEY (n, m, cert_id)
);
CREATE INDEX IF NOT EXISTS certificates_by_id ON certificates (cert_id);
CREATE TABLE IF NOT EXISTS overrides (
    node_key TEXT PRIMARY KEY, payload TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS decisions (
    n INTEGER NOT NULL, m INTEGER NOT NULL,
    low INTEGER NOT NULL, high INTEGER NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (n, m, low, high)
);
"""

#: Connections inherited across a fork.  The child must neither use nor
#: close them (closing could checkpoint or unlink the parent's WAL), so
#: they are parked here for the life of the process.
_INHERITED: list[sqlite3.Connection] = []


class StoreError(RuntimeError):
    """The store file is unreadable, corrupt, or of another schema."""


def store_fingerprint(
    cells: Sequence[tuple[int, int]],
    overrides_doc: dict,
    shard_schema_version: int = SCHEMA_VERSION,
) -> str:
    """Content fingerprint of a store: schema, cell list and overrides.

    Cells are pure functions of ``(n, m)`` at a fixed schema version, so
    the sorted cell list plus that version pins the cell content; the
    overrides document carries everything the close-open sweep added.
    """
    basis = {
        "shard_schema": shard_schema_version,
        "cells": [list(cell) for cell in sorted(cells)],
        "overrides": overrides_doc,
    }
    blob = json.dumps(basis, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _identity(path: Path) -> tuple[int, int] | None:
    """The file at ``path`` (device, inode), or None when there is none.

    An open connection keeps its file's inode alive, so a file deleted
    and rebuilt at the same path always shows a different inode.
    """
    try:
        info = os.stat(path)
    except FileNotFoundError:
        return None
    return (info.st_dev, info.st_ino)


class StoreFile:
    """One process's handle on a store file: reads, writes, transactions."""

    _OPEN: "weakref.WeakValueDictionary[str, StoreFile]" = (
        weakref.WeakValueDictionary()
    )
    _OPEN_LOCK = threading.Lock()

    @classmethod
    def at(cls, root: str | Path) -> "StoreFile":
        """The shared handle on ``<root>/universe.sqlite``."""
        path = Path(root).resolve() / STORE_FILENAME
        with cls._OPEN_LOCK:
            handle = cls._OPEN.get(str(path))
            if handle is None:
                handle = cls(path)
                cls._OPEN[str(path)] = handle
            return handle

    def __init__(self, path: Path) -> None:
        self.path = path
        self._connection: sqlite3.Connection | None = None
        self._pid = 0
        self._identity: tuple[int, int] | None = None
        # check_same_thread off: the serving layer opens the store on the
        # main thread and reads it from handler threads; the lock keeps
        # one statement (or one write transaction) on the wire at a time.
        self._lock = threading.RLock()

    def _error(self, error: Exception) -> StoreError:
        return StoreError(
            f"universe store {self.path} is unusable ({error}); rebuild it "
            "with `python -m repro universe build --force`"
        )

    def _connect(self, create: bool) -> sqlite3.Connection | None:
        """The live connection, (re)opened when stale; None if no file."""
        connection = self._connection
        if connection is not None:
            if self._pid != os.getpid():
                _INHERITED.append(connection)
                connection = self._connection = None
            elif not connection.in_transaction and (
                _identity(self.path) != self._identity
            ):
                # The file was replaced or removed.  SQLite notices the
                # move and closes without touching the files at the path.
                connection.close()
                connection = self._connection = None
        if connection is not None:
            return connection
        if not create and not self.path.is_file():
            return None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        mode = "rwc" if create else "rw"
        try:
            connection = sqlite3.connect(
                f"{self.path.as_uri()}?mode={mode}",
                uri=True,
                timeout=30.0,
                isolation_level=None,
                check_same_thread=False,
            )
            connection.execute("PRAGMA synchronous=NORMAL")
            tables = connection.execute(
                "SELECT COUNT(*) FROM sqlite_master WHERE type = 'table'"
            ).fetchone()[0]
            if not tables:
                if not create:
                    connection.close()
                    return None  # created but never initialized: empty
                connection.execute("PRAGMA journal_mode=WAL")
                connection.executescript(
                    "BEGIN IMMEDIATE;" + _DDL
                    + "INSERT OR IGNORE INTO meta VALUES ('version', "
                    + f"'{SCHEMA_VERSION}'); COMMIT;"
                )
            version = connection.execute(
                "SELECT value FROM meta WHERE key = 'version'"
            ).fetchone()
        except sqlite3.Error as error:
            raise self._error(error) from error
        if version is None or version[0] != str(SCHEMA_VERSION):
            connection.close()
            found = "no schema version" if version is None else (
                f"schema version {version[0]}"
            )
            raise self._error(f"{found}, expected {SCHEMA_VERSION}")
        self._connection = connection
        self._pid = os.getpid()
        self._identity = _identity(self.path)
        return connection

    # -- reads -------------------------------------------------------------

    def rows(self, sql: str, params: tuple = ()) -> list[tuple]:
        """Every row of one read; no rows when the file does not exist."""
        with self._lock:
            try:
                connection = self._connect(create=False)
                if connection is None:
                    return []
                if FAULTS.active:
                    FAULTS.fire("store.read", sql=sql, params=params)
                return connection.execute(sql, params).fetchall()
            except (sqlite3.Error, FaultError) as error:
                raise self._error(error) from error

    def value(self, sql: str, params: tuple = (), default=None):
        """The first column of the first row, or ``default``."""
        rows = self.rows(sql, params)
        return rows[0][0] if rows and rows[0][0] is not None else default

    def meta(self, key: str) -> str | None:
        return self.value("SELECT value FROM meta WHERE key = ?", (key,))

    def loads(self, blob: str):
        """Decode one stored JSON value; a torn value is a StoreError."""
        try:
            return json.loads(blob)
        except ValueError as error:
            raise self._error(f"corrupt row: {error}") from error

    # -- writes ------------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """One write transaction; nested uses join the enclosing one.

        The ``store.write.commit`` fault point fires just before COMMIT,
        so an injected crash there loses exactly this transaction.
        """
        with self._lock:
            try:
                connection = self._connect(create=True)
                if connection.in_transaction:
                    yield connection
                    return
                connection.execute("BEGIN IMMEDIATE")
            except sqlite3.Error as error:
                raise self._error(error) from error
            try:
                yield connection
                if FAULTS.active:
                    FAULTS.fire("store.write.commit", path=str(self.path))
                connection.execute("COMMIT")
            except BaseException as error:
                connection.execute("ROLLBACK")
                if isinstance(error, sqlite3.Error):
                    raise self._error(error) from error
                raise

    def set_meta(self, connection: sqlite3.Connection, key: str, value: str):
        connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (key, value),
        )

    def checkpoint(self) -> None:
        """Fold the WAL back into the main file (when the file exists)."""
        with self._lock:
            try:
                connection = self._connect(create=False)
                if connection is not None:
                    connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error as error:
                raise self._error(error) from error

    def delete(self) -> None:
        """Remove the file (and its WAL) so the next write recreates it."""
        with self._lock:
            if self._connection is not None:
                if self._pid == os.getpid():
                    self._connection.close()
                else:
                    _INHERITED.append(self._connection)
            self._connection = None
            for suffix in ("", "-wal", "-shm"):
                Path(f"{self.path}{suffix}").unlink(missing_ok=True)
