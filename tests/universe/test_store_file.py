"""The store file: crash safety, loud failures, stale handles, forks.

``universe.sqlite`` is the only copy of a store, so these tests pin what
replaced the old shard self-heal and pack fallback:

* crashes — fault points inside the write transaction
  (``store.write.commit``) lose exactly the transaction they hit: a
  build keeps every cell it committed, and a close-open commit lands
  its override rows and decide-cache rows together or not at all;
* damage — a corrupt or schema-mismatched file makes every reader raise
  one :class:`StoreError` naming the file and ``universe build --force``,
  and ``build(force=True)`` recreates it;
* handles — a reader notices a file deleted and rebuilt under it, a
  forked child never reuses its parent's connection, and no read path
  creates the file.
"""

import os
import shutil
import sqlite3
import subprocess
import sys
import threading
from contextlib import closing
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.testing import FAULTS, FaultError
from repro.universe import (
    HOT_CELLS,
    SCHEMA_VERSION,
    STORE_FILENAME,
    StoreError,
    UniverseStore,
    build_cell,
    build_rectangle,
    rectangle_cells,
    store_fingerprint,
)
from repro.universe.persist import cell_to_payload

SRC = str(Path(__file__).resolve().parents[2] / "src")


def raise_fault(context):
    raise FaultError("injected store fault")


@pytest.fixture(autouse=True)
def disarmed_faults():
    FAULTS.clear()
    yield
    FAULTS.clear()


def cli(*args, faults=None):
    """Run ``python -m repro`` in a child process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def assert_cells_are_reference(store, cells):
    payloads = list(store.cell_payloads())
    assert [(p["n"], p["m"]) for p in payloads] == cells
    for payload in payloads:
        assert payload == cell_to_payload(build_cell(payload["n"], payload["m"]))


def closure_row():
    return {
        "solvability": "wait-free solvable",
        "reason": "injected closure",
        "tier": 4,
        "procedure": "decision-map",
        "certificate_id": "ctest",
        "certificate": {"kind": "theorem"},
    }


class TestCrashSafety:
    def test_build_killed_at_the_fifth_commit_keeps_four_cells(self, tmp_path):
        store = UniverseStore(tmp_path / "store")
        with FAULTS.injected("store.write.commit", raise_fault, after=4):
            with pytest.raises(FaultError):
                store.build(8, 4)
        committed = rectangle_cells(8, 4)[:4]
        assert_cells_are_reference(store, committed)
        assert store.fingerprint() == store_fingerprint(committed, {})
        resumed = store.build(8, 4)
        assert resumed.cells_built == 32 - 4
        assert_cells_are_reference(store, rectangle_cells(8, 4))

    def test_parallel_build_killed_mid_commit_keeps_whole_cells(self, tmp_path):
        store = UniverseStore(tmp_path / "store")
        with FAULTS.injected("store.write.commit", raise_fault, after=6):
            with pytest.raises(FaultError):
                store.build(8, 4, jobs=2)
        committed = store.built_cells()
        assert len(committed) == 6
        assert_cells_are_reference(store, committed)
        assert store.build(8, 4, jobs=2).cells_built == 32 - 6
        assert_cells_are_reference(store, rectangle_cells(8, 4))

    def test_failed_close_open_commit_lands_nothing(self, tmp_path):
        store = UniverseStore(tmp_path / "store")
        store.build(4, 3)
        before = store.fingerprint()
        open_entry = {
            "solvability": "open",
            "reason": "still open",
            "tier": 4,
            "procedure": "decision-map",
            "certificate_id": None,
            "certificate": None,
            "evidence": ["refuted at r=1"],
        }
        with FAULTS.injected("store.write.commit", raise_fault):
            with pytest.raises(FaultError):
                store.apply_closures(
                    {(4, 3, 0, 2): closure_row()},
                    {"test": True},
                    open_entries={(4, 3, 1, 2): open_entry},
                )
        fresh = UniverseStore(store.root)
        assert fresh.read_overrides() == {}
        assert fresh.decision_cache.get((4, 3, 0, 2)) is None
        assert fresh.decision_cache.get((4, 3, 1, 2)) is None
        assert fresh.fingerprint() == before
        # The same commit goes through once the fault is gone.
        store.apply_closures({(4, 3, 0, 2): closure_row()}, {"test": True})
        assert fresh.decision_cache.get((4, 3, 0, 2))["certificate_id"] == "ctest"
        assert UniverseStore(store.root).fingerprint() != before

    def test_cli_build_crashing_mid_commit_resumes_to_the_reference(
        self, tmp_path
    ):
        root = tmp_path / "store"
        crashed = cli(
            "universe", "build", "--max-n", "8", "--max-m", "4",
            "--dir", str(root),
            faults="store.write.commit=exit:after=5",
        )
        assert crashed.returncode != 0
        assert UniverseStore(root).built_cells() == rectangle_cells(8, 4)[:5]
        rerun = cli(
            "universe", "build", "--max-n", "8", "--max-m", "4",
            "--dir", str(root),
        )
        assert rerun.returncode == 0, rerun.stderr
        assert "27 built, 5 reused" in rerun.stdout
        store = UniverseStore(root)
        assert_cells_are_reference(store, rectangle_cells(8, 4))
        assert store.fingerprint() == store_fingerprint(rectangle_cells(8, 4), {})


@pytest.fixture
def built(tmp_path):
    store = UniverseStore(tmp_path / "store")
    store.build(5, 3)
    return store


def swap_in(store, damage):
    """Replace the store file with a damaged copy, as another program
    would: ``damage`` edits the copy before it is renamed into place."""
    store.pack()  # fold the WAL in so the copy holds every commit
    path = store.root / STORE_FILENAME
    copy = path.with_name("damaged.sqlite")
    shutil.copyfile(path, copy)
    damage(copy)
    os.replace(copy, path)


def run_sql(*statements):
    def damage(path):
        with closing(sqlite3.connect(path)) as connection, connection:
            for statement in statements:
                connection.execute(statement)

    return damage


def assert_loud(store):
    """Every read path raises the one error, naming file and cure."""
    HOT_CELLS.clear()
    reader = UniverseStore(store.root)
    for read in (
        reader.built_cells,
        reader.load,
        lambda: reader.node_at(4, 3, 0, 2),
        reader.stats,
    ):
        with pytest.raises(StoreError) as caught:
            read()
        message = str(caught.value)
        assert str(store.root.resolve() / STORE_FILENAME) in message
        assert "universe build --force" in message


def truncate_to(fraction):
    def damage(path):
        blob = path.read_bytes()
        path.write_bytes(blob[: max(11, int(len(blob) * fraction))])

    return damage


def scramble_pages(path):
    """Keep the 100-byte SQLite header, turn the rest into nonsense."""
    blob = bytearray(path.read_bytes())
    for index in range(100, len(blob)):
        blob[index] = (index * 7 + 13) % 256
    path.write_bytes(bytes(blob))


DAMAGE = {
    "garbage": lambda path: path.write_bytes(b"not a db" * 512),
    "garbage-after-valid-header": scramble_pages,
    "truncated-to-a-third": truncate_to(1 / 3),
    "truncated-to-11-bytes": truncate_to(0),
    "schema-mismatch": run_sql(
        f"UPDATE meta SET value = '{SCHEMA_VERSION + 1}' WHERE key = 'version'"
    ),
    "missing-schema-version": run_sql("DELETE FROM meta WHERE key = 'version'"),
    "dropped-tables": run_sql("DROP TABLE cells", "DROP TABLE nodes"),
}


class TestLoudFailures:
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_file_is_one_loud_error(self, built, damage):
        swap_in(built, DAMAGE[damage])
        assert_loud(built)

    def test_torn_row_fails_the_read(self, built):
        swap_in(built, run_sql("UPDATE nodes SET payload = '{ not json'"))
        with pytest.raises(StoreError, match="corrupt row"):
            UniverseStore(built.root).load()

    def test_force_build_recreates_a_damaged_file(self, built):
        swap_in(built, run_sql("UPDATE meta SET value = '0' WHERE key = 'version'"))
        store = UniverseStore(built.root)
        with pytest.raises(StoreError):
            store.build(5, 3)
        report = store.build(5, 3, force=True)
        assert report.cells_built == 15
        assert store.load().node_count == build_rectangle(5, 3).node_count

    def test_read_fault_raises_and_caches_nothing(self, built):
        HOT_CELLS.clear()
        with FAULTS.injected("store.read", raise_fault, times=1):
            with pytest.raises(StoreError, match="injected store fault"):
                built.node_at(4, 3, 0, 2)
        assert len(HOT_CELLS) == 0
        assert built.node_at(4, 3, 0, 2) is not None

    def test_cli_names_the_file_and_the_cure(self, built, capsys):
        swap_in(built, lambda path: path.write_bytes(b"garbage" * 512))
        assert main(["universe", "stats", "--dir", str(built.root)]) == 2
        err = capsys.readouterr().err
        assert STORE_FILENAME in err and "universe build --force" in err

    def test_cli_force_build_recovers_a_damaged_store(self, built, capsys):
        swap_in(built, DAMAGE["schema-mismatch"])
        root = str(built.root)
        argv = ["universe", "build", "--max-n", "5", "--max-m", "3"]
        assert main([*argv, "--dir", root]) == 2
        assert "universe build --force" in capsys.readouterr().err
        assert main([*argv, "--force", "--dir", root]) == 0
        assert main(["universe", "check", "--dir", root]) == 0
        assert "all OK" in capsys.readouterr().out

    def test_torn_wal_beside_a_valid_store_is_ignored(self, built, tmp_path):
        built.pack()  # every commit is in the main file
        copy = tmp_path / "copy"
        copy.mkdir()
        shutil.copyfile(built.root / STORE_FILENAME, copy / STORE_FILENAME)
        (copy / f"{STORE_FILENAME}-wal").write_bytes(b"\x00torn wal\xff" * 64)
        HOT_CELLS.clear()
        reader = UniverseStore(copy)
        assert reader.load().node_count == build_rectangle(5, 3).node_count
        assert reader.node_at(4, 3, 0, 2) is not None

    def test_empty_file_reads_as_an_empty_store_until_built(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / STORE_FILENAME).write_bytes(b"")  # created, never written
        store = UniverseStore(root)
        assert store.built_cells() == []
        with pytest.raises(FileNotFoundError, match="no built cells"):
            store.load()
        assert store.build(4, 3).cells_built == 12
        assert store.load().node_count == build_rectangle(4, 3).node_count


class TestReadsNeverCreate:
    def test_reads_of_a_missing_store_are_empty(self, tmp_path):
        root = tmp_path / "missing"
        store = UniverseStore(root)
        assert store.built_cells() == []
        assert store.read_overrides() == {}
        assert store.stats()["cells"] == 0
        assert store.fingerprint() == store_fingerprint([], {})
        assert store.certificate_payload("cmissing") is None
        assert store.decision_cache.get((4, 3, 0, 2)) is None
        assert list(store.decision_cache.iter_entries()) == []
        with pytest.raises(FileNotFoundError, match="no built cells"):
            store.load()
        UniverseStore.open_readonly(root)
        assert not root.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["universe", "stats"],
            ["universe", "query", "--frontier"],
            ["universe", "check"],
            ["serve", "--port", "0"],
        ],
    )
    def test_cli_reads_of_a_missing_store(self, tmp_path, capsys, argv):
        root = tmp_path / "missing"
        assert main([*argv, "--dir", str(root)]) == 2
        assert "no built cells" in capsys.readouterr().err
        assert not root.exists()


class TestPack:
    def test_pack_folds_the_wal_into_the_file(self, built):
        wal = built.root / f"{STORE_FILENAME}-wal"
        assert wal.stat().st_size > 0
        built.pack()
        assert wal.stat().st_size == 0
        assert built.stats()["cells"] == 15

    def test_pack_of_a_missing_store_creates_nothing(self, tmp_path):
        UniverseStore(tmp_path / "missing").pack()
        assert not (tmp_path / "missing").exists()


class TestFingerprint:
    def test_stored_fingerprint_matches_its_definition(self, built):
        built.apply_closures({(4, 3, 0, 2): closure_row()}, {"test": True})
        reader = UniverseStore(built.root)
        assert reader.fingerprint() == store_fingerprint(
            rectangle_cells(5, 3), reader.read_overrides()
        )

    def test_identical_content_gives_identical_fingerprints(self, tmp_path):
        direct = UniverseStore(tmp_path / "direct")
        direct.build(6, 3, jobs=2)
        widened = UniverseStore(tmp_path / "widened")
        widened.build(4, 3)
        widened.build(6, 3)
        assert direct.fingerprint() == widened.fingerprint()
        for store in (direct, widened):
            store.apply_closures({(4, 3, 0, 2): closure_row()}, {"test": True})
        assert direct.fingerprint() == widened.fingerprint()
        closed = direct.fingerprint()
        direct.build(6, 3, force=True)
        assert direct.fingerprint() == store_fingerprint(rectangle_cells(6, 3), {})
        assert direct.fingerprint() != closed


class TestConcurrentThreads:
    def test_threads_share_one_connection_safely(self, built):
        reference = build_rectangle(5, 3)
        keys = sorted(node.key for node in reference.nodes())
        failures: list[str] = []
        writes = 40
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def reader(worker: int) -> None:
            store = UniverseStore(built.root)
            for round_ in range(30):
                key = keys[(worker * 7 + round_) % len(keys)]
                HOT_CELLS.pop((str(store.root), store.fingerprint()) + key)
                node = store.node_at(*key)
                if node != reference.node(key):
                    failures.append(f"{key}: {node}")

        def writer() -> None:
            cache = UniverseStore(built.root).decision_cache
            for index in range(writes):
                cache.put((9, 9, index, index), {"solvability": "open"})

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(6)]
        threads.append(threading.Thread(target=writer))
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:5]
        entries = list(UniverseStore(built.root).decision_cache.iter_entries())
        assert len(entries) == writes


class TestStaleHandles:
    def test_in_process_rebuild_is_picked_up_on_next_open(self, tmp_path):
        root = tmp_path / "store"
        UniverseStore(root).build(6, 3)
        reader = UniverseStore.open_readonly(root)
        assert (6, 3) in reader.load_cached().cells
        shutil.rmtree(root)
        UniverseStore(root).build(5, 4)
        reopened = UniverseStore.open_readonly(root)
        assert reopened is reader
        assert reopened.load_cached().cells == set(rectangle_cells(5, 4))

    def test_reader_notices_a_store_rebuilt_under_it(self, tmp_path):
        root = tmp_path / "store"
        UniverseStore(root).build(6, 3)
        reader = UniverseStore.open_readonly(root)
        assert (6, 3) in reader.load_cached().cells
        assert reader.node_at(6, 3, 1, 4) is not None
        # Another process deletes the store and builds a different
        # rectangle at the same path while the reader stays connected.
        shutil.rmtree(root)
        rebuilt = cli(
            "universe", "build", "--max-n", "5", "--max-m", "4",
            "--dir", str(root),
        )
        assert rebuilt.returncode == 0, rebuilt.stderr
        reopened = UniverseStore.open_readonly(root)
        assert reopened is reader
        assert reopened.load_cached().cells == set(rectangle_cells(5, 4))
        assert reopened.node_at(5, 4, 1, 5) is not None
        assert reopened.node_at(6, 3, 1, 4) is None

    def test_forked_child_opens_its_own_connection(self, built):
        HOT_CELLS.clear()
        assert built.node_at(4, 3, 0, 2) is not None  # parent connected
        parent_connection = built._db._connection
        pid = os.fork()
        if pid == 0:  # child: must reconnect, never reuse the parent's
            code = 1
            try:
                HOT_CELLS.clear()
                node = built.node_at(5, 3, 1, 5)
                if node is not None and built._db._connection is not (
                    parent_connection
                ):
                    code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        HOT_CELLS.clear()
        assert built.node_at(5, 3, 1, 5) is not None
        assert built._db._connection is parent_connection


def test_store_directory_holds_one_file_and_the_sweep_queue(tmp_path, capsys):
    root = tmp_path / "store"
    assert main([
        "universe", "build", "--max-n", "4", "--max-m", "3", "--close-open",
        "--max-rounds", "1", "--budget", "3000", "--dir", str(root),
    ]) == 0
    assert main([
        "sweep", "run", "--workers", "0", "--sweep-rounds", "1",
        "--dir", str(root),
    ]) == 0
    files = {
        str(path.relative_to(root))
        for path in root.rglob("*")
        if path.is_file() and not path.name.endswith(("-wal", "-shm"))
    }
    assert files == {STORE_FILENAME, "sweep/jobs.sqlite"}
