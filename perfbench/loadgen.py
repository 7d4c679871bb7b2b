"""Open-loop HTTP load generator for the ``serve`` workload.

    python3 perfbench/loadgen.py PLAN.json RESULT.json

The plan holds the server address, the request stream (method, target,
headers, body and the expected status and body digest of each request)
and a ladder of ``(rate, seconds)`` phases.  Within an open phase request
``i`` is due at ``start + i / rate`` whatever happened to earlier
requests: the users are independent, so this is an open loop.  A phase
without a rate is a closed loop: one client that waits for each answer.  At most
``CONNECTIONS`` keep-alive connections carry the load, one thread each;
a thread that is free sleeps until the next request is due, a thread
that is busy past a due time sends as soon as it is free.

Latency is timed from the due time, so a stall also counts against the
requests queued behind it.  The generator checks itself: ``late`` is how
far past its due time an idle thread woke up, and the process CPU
seconds of each phase are recorded.  A phase whose generator could not
keep its schedule is marked invalid.  ``/stats`` is read on its own
connection before and after each phase so the server's service time
can be set against the client's latency.
"""

from __future__ import annotations

import hashlib
import json
import socket
import sys
import threading
import time

CONNECTIONS = 2
#: An idle thread waking this far past its due time at the 99th
#: percentile means the generator, not the server, set the latency (a
#: tenth of the 50 ms p99 limit the ladder is judged by).
LATE_LIMIT_MS = 5.0
#: Once sends fall this far behind schedule the phase is past
#: saturation; the rest of it is not sent, so a run stays bounded.
ABANDON_LAG_S = 1.0


class Connection:
    """One keep-alive HTTP/1.1 connection that speaks just what the server
    answers with: a status line, headers and a ``Content-Length`` body.
    Each request goes out in one write, so no Nagle delay splits it."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, wire: bytes) -> tuple[int, bytes, bool]:
        """Send one encoded request; returns (status, body, server closes)."""
        self.sock.sendall(wire)
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        status = int(line.split()[1])
        length, closes = 0, False
        while (line := self.reader.readline()) not in (b"\r\n", b"\n", b""):
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                closes = value.strip().lower() == b"close"
        body = self.reader.read(length) if length else b""
        return status, body, closes

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def encode(method: str, target: str, headers: dict, body: str | None) -> bytes:
    payload = body.encode() if body else b""
    head = [f"{method} {target} HTTP/1.1", f"Content-Length: {len(payload)}"]
    head += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload


def _stats(host: str, port: int) -> dict:
    conn = Connection(host, port)
    try:
        status, body, _ = conn.request(encode("GET", "/stats", {}, None))
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)
    finally:
        conn.close()


class Phase:
    """One phase of the ladder.

    With a ``rate`` it is open: ``CONNECTIONS`` threads send request ``i``
    at ``start + i / rate``.  Without one it is closed: one connection
    sends each request as soon as the previous answer arrives, for
    ``seconds``, and a request is timed from when it was sent.
    """

    def __init__(
        self, plan: dict, rate: float | None, seconds: float, offset: int
    ) -> None:
        self.plan = plan
        self.rate = rate
        self.seconds = seconds
        self.count = max(1, int(rate * seconds)) if rate else None
        self.end = float("inf")
        self.offset = offset
        self.lock = threading.Lock()
        self.next = 0
        self.abandoned = False
        self.latency_ms: list[float] = []
        self.late_ms: list[float] = []
        self.lag_ms: list[float] = []  # send time minus due time, every request
        self.statuses: dict[str, int] = {}
        self.failures: list[str] = []
        self.failed = 0
        self.sent = 0

    def _take(self) -> int | None:
        with self.lock:
            if (
                self.abandoned
                or (self.count is not None and self.next >= self.count)
                or time.perf_counter() >= self.end
            ):
                return None
            index = self.next
            self.next += 1
            return index

    def _record(self, latency, late, lag, status, failure) -> None:
        with self.lock:
            self.sent += 1
            self.latency_ms.append(latency)
            self.lag_ms.append(lag)
            if late is not None:
                self.late_ms.append(late)
            self.statuses[str(status)] = self.statuses.get(str(status), 0) + 1
            if failure is not None:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(failure)
            if lag > ABANDON_LAG_S * 1000:
                self.abandoned = True

    def _worker(self, start: float) -> None:
        host, port = self.plan["host"], self.plan["port"]
        stream = self.plan["requests"]
        conn = Connection(host, port)
        try:
            while (index := self._take()) is not None:
                request = stream[(self.offset + index) % len(stream)]
                now = time.perf_counter()
                due = start + index / self.rate if self.rate else now
                late = None
                if now < due:
                    time.sleep(due - now)
                    now = time.perf_counter()
                    late = 1000.0 * (now - due)
                lag = 1000.0 * (now - due)
                status, failure = None, None
                try:
                    status, body, closes = conn.request(request["wire"])
                except (OSError, ValueError, IndexError) as error:
                    failure = f"{request['target']}: {error!r}"
                    closes = True
                done = time.perf_counter()
                if closes:
                    conn.close()
                    conn = Connection(host, port)
                if failure is None and (
                    status != request["status"]
                    or hashlib.sha256(body).hexdigest() != request["digest"]
                ):
                    failure = (
                        f"{request['target']}: status {status}, expected "
                        f"{request['status']}, or the body differs"
                    )
                self._record(1000.0 * (done - due), late, lag, status, failure)
        finally:
            conn.close()

    def run(self) -> dict:
        host, port = self.plan["host"], self.plan["port"]
        before = _stats(host, port)
        cpu = time.process_time()
        start = time.perf_counter() + 0.01
        if not self.rate:
            self.end = start + self.seconds
        threads = [
            threading.Thread(target=self._worker, args=(start,))
            for _ in range(CONNECTIONS if self.rate else 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        after = _stats(host, port)
        late = sorted(self.late_ms)
        tail = self.lag_ms[-max(1, len(self.lag_ms) // 10):]
        late_p99 = late[int(0.99 * (len(late) - 1))] if late else 0.0
        return {
            "rate": self.rate,
            "due": self.count if self.rate else self.sent,
            "sent": self.sent,
            "abandoned": self.abandoned,
            "wall_s": wall,
            "gen_cpu_s": cpu,
            "gen_late_p99_ms": late_p99,
            "valid": late_p99 <= LATE_LIMIT_MS,
            "tail_lag_ms": sorted(tail)[len(tail) // 2],
            "latency_ms": self.latency_ms,
            "statuses": self.statuses,
            "failed": self.failed,
            "failures": self.failures,
            "stats_before": before,
            "stats_after": after,
        }


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    for request in plan["requests"]:
        request["wire"] = encode(
            request["method"], request["target"], request["headers"], request["body"]
        )
    phases = []
    offset = 0
    for rate, seconds in plan["ladder"]:
        phases.append(Phase(plan, rate, seconds, offset).run())
        offset += phases[-1]["due"]
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"phases": phases}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
