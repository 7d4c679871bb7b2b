"""Pre-fork multi-worker supervisor over the single-process server.

``python -m repro serve --workers N`` runs N forked copies of the
:func:`repro.serve.http.serve_forever` event loop behind **one** TCP
port and keeps them alive:

* **socket sharing** — where the platform has ``SO_REUSEPORT`` (Linux,
  modern BSDs) every worker binds its own listening socket on the
  shared port and the kernel load-balances accepts across them; where
  it does not, the parent binds and listens once pre-fork and the
  workers accept on the inherited descriptor.
* **crash recovery** — the parent reaps dead workers and restarts them
  with per-slot exponential backoff (``0.1s · 2^k`` capped at 5s,
  reset after a stable stretch), so a crash-looping worker cannot spin
  the host while a one-off crash restarts almost immediately.
* **graceful drain** — SIGTERM/SIGINT forward a drain to every worker:
  stop accepting, finish in-flight requests up to the configured
  grace, exit 0; the parent hard-kills stragglers past the deadline.
* **rolling restart** — SIGHUP replaces workers one at a time (drain,
  reap, respawn), so a store refresh never drops the whole port.

Worker health is shared through a :class:`WorkerBoard`: an anonymous
``mmap`` created pre-fork, one row of counters per worker slot.  The
parent writes pid/liveness/restart counts, each worker mirrors its own
request/shed/timeout counters into its row, and every worker serves
the whole board at ``/stats`` under ``"workers"`` — so any worker can
answer "how many times did my siblings restart".

:class:`SupervisedServer` is the test/CI harness: it runs the
supervisor as a real subprocess (signals and forks stay out of the
test process), parses the announced port, and exposes
kill-a-worker/roll/stats helpers for the chaos suite.

The model mirrors the paper's crash-fault discipline: workers are
processes that may crash at arbitrary points (the chaos suite injects
exactly that via :mod:`repro.testing.faults`), and the supervisor's
job is wait-free progress for the surviving ones.
"""

from __future__ import annotations

import mmap
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from ..testing.faults import install_from_env
from .http import ServeConfig, request_json, serve_forever
from .metrics import ServiceMetrics

__all__ = [
    "SupervisedServer",
    "Supervisor",
    "SupervisorConfig",
    "WorkerBoard",
    "reuse_port_available",
]


def reuse_port_available() -> bool:
    """True when this platform can bind N sockets to one port."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:
        return False
    finally:
        probe.close()


class WorkerBoard:
    """Per-worker counters in one pre-fork anonymous shared mapping.

    Each slot owns a fixed row of 8-byte little-endian counters.  The
    writer discipline keeps it lock-free: the parent writes ``pid``,
    ``alive``, ``generation`` and ``restarts``; worker *k* writes only
    the traffic counters of row *k*.  Aligned 8-byte writes do not
    tear in practice, and the board is diagnostics, not ground truth.
    """

    FIELDS = (
        "pid",
        "alive",
        "generation",
        "restarts",
        "requests",
        "errors",
        "shed",
        "timeouts",
    )

    def __init__(self, slots: int) -> None:
        self.slots = slots
        self._map = mmap.mmap(-1, max(1, slots) * len(self.FIELDS) * 8)

    def _offset(self, slot: int, fld: str) -> int:
        return (slot * len(self.FIELDS) + self.FIELDS.index(fld)) * 8

    def write(self, slot: int, **values: int) -> None:
        for fld, value in values.items():
            struct.pack_into("<Q", self._map, self._offset(slot, fld), value)

    def read(self, slot: int, fld: str) -> int:
        return struct.unpack_from("<Q", self._map, self._offset(slot, fld))[0]

    def increment(self, slot: int, fld: str) -> None:
        self.write(slot, **{fld: self.read(slot, fld) + 1})

    def row(self, slot: int) -> dict[str, int]:
        out = {"slot": slot}
        for fld in self.FIELDS:
            out[fld] = self.read(slot, fld)
        return out

    def snapshot(self) -> dict:
        rows = [self.row(slot) for slot in range(self.slots)]
        return {
            "slots": rows,
            "alive": sum(row["alive"] for row in rows),
            "restarts_total": sum(row["restarts"] for row in rows),
        }


@dataclass
class SupervisorConfig:
    """Parent-side knobs (the per-request knobs live in ServeConfig)."""

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 8707
    serve: ServeConfig = field(default_factory=ServeConfig)
    #: Exponential-backoff restart schedule: ``base * 2^failures``,
    #: capped, with the failure count reset after a stable stretch.
    backoff_base: float = 0.1
    backoff_cap: float = 5.0
    backoff_reset: float = 10.0
    #: None = auto-detect; False forces the inherited-fd fallback.
    reuse_port: bool | None = None


class Supervisor:
    """The pre-fork parent: owns the port, keeps N workers serving it."""

    def __init__(self, root, config: SupervisorConfig | None = None) -> None:
        self.root = root
        self.config = config or SupervisorConfig()
        if self.config.workers < 1:
            raise ValueError("a supervisor needs at least one worker")
        if not hasattr(os, "fork"):
            raise RuntimeError(
                "the pre-fork supervisor requires os.fork(); "
                "use --workers 1 on this platform"
            )
        self.reuse_port = (
            reuse_port_available()
            if self.config.reuse_port is None
            else self.config.reuse_port
        )
        self.board = WorkerBoard(self.config.workers)
        self.port: int | None = None
        self._listen_sock: socket.socket | None = None
        self._pids: dict[int, int] = {}  # slot -> live pid
        self._failures: dict[int, int] = {}
        self._last_start: dict[int, float] = {}
        self._restart_at: dict[int, float] = {}
        self._generation = 0
        self._stop = False
        self._hup = False

    # -- sockets ---------------------------------------------------------

    def _bind(self) -> None:
        cfg = self.config
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if self.reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((cfg.host, cfg.port))
        if not self.reuse_port:
            # Inherited-fd mode: the parent listens once and every forked
            # worker accepts on the shared descriptor.  In reuse-port
            # mode this socket only reserves the port (a bound, never
            # listening socket takes no share of the accept load).
            sock.listen(128)
        self.port = sock.getsockname()[1]
        self._listen_sock = sock

    def _worker_socket(self) -> socket.socket:
        """The listening socket one worker serves on (mode-dependent)."""
        if not self.reuse_port:
            assert self._listen_sock is not None
            return self._listen_sock
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.config.host, self.port))
        sock.listen(128)
        return sock


    # -- worker lifecycle ------------------------------------------------

    def _spawn(self, slot: int) -> None:
        self._generation += 1
        generation = self._generation
        pid = os.fork()
        if pid == 0:
            # Worker. Never return into the parent's stack: os._exit
            # always, even on an import-time explosion.
            code = 1
            try:
                code = self._worker_main(slot, generation)
            except BaseException:  # noqa: BLE001 - report, then die
                import traceback

                traceback.print_exc()
            finally:
                os._exit(code)
        self._pids[slot] = pid
        self._last_start[slot] = time.monotonic()
        self._restart_at.pop(slot, None)
        self.board.write(slot, pid=pid, alive=1, generation=generation)

    def _worker_main(self, slot: int, generation: int) -> int:
        cfg = self.config
        install_from_env()
        drain = threading.Event()
        for received in (signal.SIGTERM, signal.SIGHUP):
            signal.signal(received, lambda *_: drain.set())
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent coordinates

        metrics = ServiceMetrics()
        board, stop_sync = self.board, threading.Event()

        def sync() -> None:
            while not stop_sync.wait(0.1):
                transport = metrics.transport_snapshot()
                errors = sum(
                    row["errors"] for row in metrics.snapshot().values()
                )
                board.write(
                    slot,
                    requests=metrics.total_requests(),
                    errors=errors,
                    shed=transport["shed"],
                    timeouts=transport["timeouts"],
                )

        threading.Thread(target=sync, name="board-sync", daemon=True).start()
        sock = self._worker_socket()
        try:
            serve_forever(
                self.root,
                metrics=metrics,
                config=cfg.serve,
                sock=sock,
                drain=drain,
                extra_stats=lambda: {"self": slot, **board.snapshot()},
                announce=False,
            )
        finally:
            stop_sync.set()
        return 0

    # -- parent loop -----------------------------------------------------

    def _reap(self) -> None:
        """Collect dead workers; schedule backoff restarts for crashes."""
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            slot = next(
                (s for s, p in self._pids.items() if p == pid), None
            )
            if slot is None:
                continue
            del self._pids[slot]
            self.board.write(slot, alive=0)
            if self._stop:
                continue  # draining: exits are expected, no restart
            code = os.waitstatus_to_exitcode(status)
            now = time.monotonic()
            if now - self._last_start.get(slot, 0.0) > self.config.backoff_reset:
                self._failures[slot] = 0
            failures = self._failures.get(slot, 0)
            delay = min(
                self.config.backoff_base * (2 ** failures),
                self.config.backoff_cap,
            )
            self._failures[slot] = failures + 1
            self._restart_at[slot] = now + delay
            self.board.increment(slot, "restarts")
            print(
                f"supervisor: worker {slot} (pid {pid}) died "
                f"({'exit ' + str(code) if code >= 0 else 'signal ' + str(-code)}); "
                f"restarting in {delay:.2f}s",
                file=sys.stderr,
                flush=True,
            )

    def _rolling_restart(self) -> None:
        """Replace workers one at a time (SIGHUP: store refresh)."""
        print("supervisor: rolling restart", file=sys.stderr, flush=True)
        for slot in sorted(self._pids):
            pid = self._pids.get(slot)
            if pid is None:
                continue
            self._drain_one(pid)
            self._reap()
            self._pids.pop(slot, None)
            self.board.write(slot, alive=0)
            self._spawn(slot)

    def _drain_one(self, pid: int) -> None:
        """SIGTERM one worker and wait out the grace, then SIGKILL."""
        deadline = time.monotonic() + self.config.serve.drain_grace + 2.0
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            return
        while time.monotonic() < deadline:
            done, _ = os.waitpid(pid, os.WNOHANG)
            if done == pid:
                return
            time.sleep(0.02)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        os.waitpid(pid, 0)

    def run(self) -> int:
        """Serve until SIGTERM/SIGINT; returns a process exit code."""
        cfg = self.config
        self._bind()
        signal.signal(signal.SIGTERM, lambda *_: setattr(self, "_stop", True))
        signal.signal(signal.SIGINT, lambda *_: setattr(self, "_stop", True))
        signal.signal(signal.SIGHUP, lambda *_: setattr(self, "_hup", True))
        mode = "SO_REUSEPORT" if self.reuse_port else "inherited-fd"
        print(
            f"supervisor listening on http://{cfg.host}:{self.port} "
            f"({cfg.workers} workers, {mode} sockets, pid {os.getpid()})",
            flush=True,
        )
        for slot in range(cfg.workers):
            self._spawn(slot)
        try:
            while not self._stop:
                self._reap()
                if self._stop:
                    break
                if self._hup:
                    self._hup = False
                    self._rolling_restart()
                now = time.monotonic()
                for slot, due in list(self._restart_at.items()):
                    if due <= now:
                        self._spawn(slot)
                time.sleep(0.05)
        finally:
            self._shutdown()
        return 0

    def _shutdown(self) -> None:
        """Graceful drain of every worker, then hard-kill stragglers."""
        self._stop = True
        for pid in self._pids.values():
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + self.config.serve.drain_grace + 2.0
        while self._pids and time.monotonic() < deadline:
            self._reap()
            time.sleep(0.02)
        for slot, pid in list(self._pids.items()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.board.write(slot, alive=0)
        while self._pids:
            self._reap()
            if self._pids:
                time.sleep(0.02)
        if self._listen_sock is not None:
            self._listen_sock.close()
        print("supervisor: drained, exiting", file=sys.stderr, flush=True)


class SupervisedServer:
    """Subprocess harness for supervisor tests, benches and CI smoke.

    Runs ``python -m repro serve --workers N`` as a real child process
    (forks and signals stay out of the calling process), parses the
    announced port off stdout, and waits for ``/healthz``::

        with SupervisedServer(root, workers=2) as server:
            server.kill_worker(server.worker_pids()[0])   # chaos!
            server.wait_healthy()
            assert server.stats()["workers"]["restarts_total"] >= 1
    """

    def __init__(
        self,
        root,
        workers: int = 2,
        faults: str | None = None,
        request_timeout: float | None = None,
        idle_timeout: float | None = None,
        max_inflight: int | None = None,
        reuse_port: bool | None = None,
        startup_timeout: float = 60.0,
    ) -> None:
        self.root = root
        self.workers = workers
        self.faults = faults
        self.request_timeout = request_timeout
        self.idle_timeout = idle_timeout
        self.max_inflight = max_inflight
        self.reuse_port = reuse_port
        self.startup_timeout = startup_timeout
        self.host = "127.0.0.1"
        self.port: int | None = None
        self.process: subprocess.Popen | None = None
        self._output: list[str] = []
        self._reader: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------

    def command(self) -> list[str]:
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--dir",
            str(self.root),
            "--workers",
            str(self.workers),
            "--host",
            self.host,
            "--port",
            "0",
        ]
        if self.request_timeout is not None:
            cmd += ["--request-timeout", str(self.request_timeout)]
        if self.idle_timeout is not None:
            cmd += ["--idle-timeout", str(self.idle_timeout)]
        if self.max_inflight is not None:
            cmd += ["--max-inflight", str(self.max_inflight)]
        if self.reuse_port is False:
            cmd += ["--no-reuse-port"]
        return cmd

    def __enter__(self) -> "SupervisedServer":
        import repro

        env = dict(os.environ)
        src = str(os.path.dirname(os.path.dirname(repro.__file__)))
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        if self.faults:
            env["REPRO_FAULTS"] = self.faults
        self.process = subprocess.Popen(
            self.command(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self._reader = threading.Thread(
            target=self._drain_output, name="supervisor-output", daemon=True
        )
        self._reader.start()
        deadline = time.monotonic() + self.startup_timeout
        while self.port is None:
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "supervisor did not announce its port; output:\n"
                    + "".join(self._output)
                )
            for line in list(self._output):
                if "supervisor listening on http://" in line:
                    address = line.split("http://", 1)[1].split()[0]
                    self.port = int(address.rsplit(":", 1)[1])
                    break
            time.sleep(0.02)
        self.wait_healthy(deadline - time.monotonic())
        return self

    def _drain_output(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        for line in self.process.stdout:
            self._output.append(line)

    def __exit__(self, *exc_info) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        if self._reader is not None:
            self._reader.join(timeout=5)
        if self.process.stdout is not None:
            self.process.stdout.close()

    @property
    def output(self) -> str:
        return "".join(self._output)

    # -- client helpers --------------------------------------------------

    def get(self, path: str, headers: dict[str, str] | None = None):
        assert self.port is not None
        return request_json(self.host, self.port, "GET", path, headers=headers)

    def post(self, path: str, document):
        assert self.port is not None
        return request_json(
            self.host, self.port, "POST", path, document=document
        )

    def stats(self) -> dict:
        status, _, payload = self.get("/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return payload

    def wait_healthy(self, timeout: float = 30.0) -> None:
        """Block until ``/healthz`` answers 200 (fresh connection each try)."""
        deadline = time.monotonic() + max(timeout, 0.1)
        last: Exception | None = None
        while time.monotonic() < deadline:
            try:
                status, _, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError as error:
                last = error
            time.sleep(0.05)
        raise RuntimeError(
            f"supervisor never became healthy ({last}); output:\n"
            + self.output
        )

    def worker_pids(self) -> list[int]:
        """Live worker pids, straight off the shared board."""
        rows = self.stats()["workers"]["slots"]
        return [row["pid"] for row in rows if row["alive"]]

    def kill_worker(self, pid: int) -> None:
        """SIGKILL one worker — the crash the supervisor must absorb."""
        os.kill(pid, signal.SIGKILL)

    def signal_supervisor(self, signum: int) -> None:
        assert self.process is not None
        self.process.send_signal(signum)

    def restarts_total(self) -> int:
        return int(self.stats()["workers"]["restarts_total"])
