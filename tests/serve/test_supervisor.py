"""Supervisor lifecycle: spawn, drain, roll, crash-restart, board.

The pre-fork supervisor runs as a real subprocess here (via
:class:`SupervisedServer`), so fork/signal semantics are tested for
real: SIGTERM drains to exit code 0 and frees the port, SIGHUP replaces
every worker pid without dropping the port, a SIGKILL'd worker is
respawned with backoff, and the ``REPRO_FAULTS`` environment seam can
make workers commit suicide mid-request — the crash model the paper's
wait-free discipline is about.
"""

import signal
import socket
import struct
import time

import pytest

from repro.serve import SupervisedServer
from repro.serve.supervisor import WorkerBoard, reuse_port_available
from repro.universe import UniverseStore

DECIDE = "/decide?n=6&m=3&low=1&high=4"


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-supervisor") / "store"
    store = UniverseStore(root)
    store.build(6, 3)
    return root


def wait_for(predicate, timeout: float, interval: float = 0.1):
    """Poll ``predicate`` (swallowing connection races) until true."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if predicate():
                return True
        except OSError:
            pass
        time.sleep(interval)
    return False


class TestWorkerBoard:
    def test_write_read_increment_roundtrip(self):
        board = WorkerBoard(3)
        board.write(1, pid=4242, alive=1, requests=17)
        assert board.read(1, "pid") == 4242
        assert board.read(0, "pid") == 0  # neighbors untouched
        board.increment(1, "restarts")
        board.increment(1, "restarts")
        row = board.row(1)
        assert row["restarts"] == 2 and row["requests"] == 17

    def test_snapshot_aggregates_across_slots(self):
        board = WorkerBoard(2)
        board.write(0, alive=1, restarts=1)
        board.write(1, alive=1, restarts=2)
        snapshot = board.snapshot()
        assert snapshot["alive"] == 2
        assert snapshot["restarts_total"] == 3
        assert [row["slot"] for row in snapshot["slots"]] == [0, 1]

    def test_counters_are_64_bit(self):
        board = WorkerBoard(1)
        big = 2**53 + 7
        board.write(0, requests=big)
        assert board.read(0, "requests") == big

    def test_out_of_range_field_rejected(self):
        board = WorkerBoard(1)
        with pytest.raises(ValueError):
            board.write(0, nonsense=1)
        with pytest.raises((struct.error, ValueError)):
            board.write(3, pid=1)  # slot beyond the mapping


class TestSupervisorLifecycle:
    def test_serves_and_drains_to_exit_zero_freeing_the_port(self, root):
        with SupervisedServer(root, workers=2) as server:
            port = server.port
            status, _, payload = server.get("/healthz")
            assert status == 200 and payload["status"] == "ok"
            status, _, payload = server.get(DECIDE)
            assert status == 200 and payload["solvability"]
            board = server.stats()["workers"]
            assert board["alive"] == 2
            pids = [row["pid"] for row in board["slots"] if row["alive"]]
            assert len(set(pids)) == 2
        # __exit__ sent SIGTERM: the drain must exit cleanly...
        assert server.process.returncode == 0
        assert "drained, exiting" in server.output
        # ...and release the port for an immediate rebind.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind(("127.0.0.1", port))
        finally:
            probe.close()

    def test_stats_board_is_visible_from_any_worker(self, root):
        with SupervisedServer(root, workers=2) as server:
            # Whatever worker answers, it reports the whole board.
            for _ in range(4):
                workers = server.stats()["workers"]
                assert "self" in workers and len(workers["slots"]) == 2
                assert workers["alive"] == 2

    def test_sigkilled_worker_restarts_within_backoff_budget(self, root):
        with SupervisedServer(root, workers=2) as server:
            before = set(server.worker_pids())
            victim = sorted(before)[0]
            server.kill_worker(victim)
            # First crash of a slot: backoff is backoff_base (0.1s); even
            # with scheduling slack the pair must be whole again fast.
            # Both conditions are read from one board snapshot: the parent
            # marks the dead slot not alive before counting the restart,
            # so a snapshot with both true shows the respawned worker.
            def whole_again() -> bool:
                board = server.stats()["workers"]
                return board["alive"] == 2 and board["restarts_total"] >= 1

            assert wait_for(whole_again, timeout=10.0), server.output
            after = set(server.worker_pids())
            assert victim not in after
            assert len(after) == 2
            assert "restarting in" in server.output

    def test_sighup_rolls_every_worker_without_dropping_the_port(self, root):
        with SupervisedServer(root, workers=2) as server:
            before = set(server.worker_pids())
            server.signal_supervisor(signal.SIGHUP)
            assert wait_for(
                lambda: server.stats()["workers"]["alive"] == 2
                and not (set(server.worker_pids()) & before),
                timeout=20.0,
            ), server.output
            after = set(server.worker_pids())
            assert len(after) == 2 and not (after & before)
            # Rolled, not crashed: rolling replacement is not a restart.
            status, _, _ = server.get(DECIDE)
            assert status == 200

    @pytest.mark.skipif(
        not reuse_port_available(), reason="SO_REUSEPORT everywhere here"
    )
    def test_inherited_fd_mode_serves_and_recovers(self, root):
        with SupervisedServer(
            root, workers=2, reuse_port=False
        ) as server:
            assert "inherited-fd" in server.output
            status, _, payload = server.get(DECIDE)
            assert status == 200 and payload["solvability"]
            victim = server.worker_pids()[0]
            server.kill_worker(victim)
            assert wait_for(
                lambda: server.stats()["workers"]["alive"] == 2
                and server.restarts_total() >= 1,
                timeout=10.0,
            ), server.output
            server.wait_healthy(10.0)


class TestEnvFaultSeam:
    def test_workers_armed_via_env_commit_suicide_and_are_replaced(self, root):
        # after=4: each worker survives its first four requests, then
        # dies serving the fifth — a mid-request crash, the worst case.
        with SupervisedServer(
            root,
            workers=2,
            faults="serve.worker.kill=exit:after=4",
        ) as server:
            observed = 0
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                try:
                    status, _, _ = server.get("/healthz")
                except OSError:
                    continue  # that request met the injected crash
                try:
                    observed = max(observed, server.restarts_total())
                except (OSError, RuntimeError):
                    continue
                if observed >= 2:
                    break
            assert observed >= 2, server.output
            server.wait_healthy(15.0)
