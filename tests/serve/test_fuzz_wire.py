"""Malformed-wire-input fuzz: the parser must degrade, never wedge.

Every case in here feeds the server bytes a correct client would never
send — truncated request lines, header floods, garbage Content-Length,
half-closed sockets — and then asserts the two properties that matter:
the malformed connection gets a clean ``400`` (or a clean close), and
the *server keeps serving*: a well-formed request right after each abuse
still answers ``200``.  The transport ``malformed`` counter at
``/stats`` must account for the rejects.
"""

import socket

import pytest

from repro.serve import BackgroundServer
from repro.serve.http import MAX_BODY_BYTES, ServeConfig
from repro.universe import UniverseStore


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-fuzz") / "store"
    store = UniverseStore(root)
    store.build(6, 3)
    return root


@pytest.fixture(scope="module")
def server(root):
    config = ServeConfig(idle_timeout=2.0)
    with BackgroundServer(root, config=config) as running:
        yield running


def send_raw(server, blob: bytes, timeout: float = 10.0) -> bytes:
    """One raw exchange: send bytes, read until the server closes."""
    with socket.create_connection(
        (server.host, server.port), timeout=timeout
    ) as sock:
        sock.sendall(blob)
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except TimeoutError:
            pass
    return b"".join(chunks)


def read_response(sock) -> tuple[int, bytes]:
    """Parse one response off a keep-alive socket: (status, body)."""
    blob = b""
    while b"\r\n\r\n" not in blob:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError(f"connection closed mid-head: {blob!r}")
        blob += chunk
    head, _, rest = blob.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError("connection closed mid-body")
        rest += chunk
    return status, rest[:length]


def assert_server_still_serves(server) -> None:
    """The invariant every fuzz case must preserve."""
    status, _, payload = server.get("/healthz")
    assert status == 200 and payload["status"] == "ok"


WELL_FORMED = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"


class TestMalformedRequestLines:
    def test_truncated_request_line_then_close(self, server):
        # No newline ever arrives: the client gives up mid-line.  The
        # read sees EOF (IncompleteReadError territory) — the server
        # must shrug, not crash its connection task.
        blob = send_raw(server, b"GET /healthz HT")
        assert b"HTTP/1.1 200" not in blob
        assert_server_still_serves(server)

    def test_request_line_with_missing_version(self, server):
        blob = send_raw(server, b"GET /healthz\r\n\r\n")
        assert blob.startswith(b"HTTP/1.1 400")
        assert_server_still_serves(server)

    def test_request_line_with_too_many_parts(self, server):
        blob = send_raw(server, b"GET /a /b HTTP/1.1 extra\r\n\r\n")
        assert blob.startswith(b"HTTP/1.1 400")
        assert_server_still_serves(server)

    def test_binary_garbage_request(self, server):
        blob = send_raw(server, bytes(range(1, 128)) + b"\r\n\r\n")
        assert blob.startswith(b"HTTP/1.1 400")
        assert_server_still_serves(server)


class TestHeaderFloods:
    def test_too_many_headers_is_400_not_a_memory_balloon(self, server):
        config = ServeConfig()
        flood = b"".join(
            b"X-Flood-%d: x\r\n" % index
            for index in range(config.max_header_count + 8)
        )
        blob = send_raw(
            server, b"GET /healthz HTTP/1.1\r\n" + flood + b"\r\n"
        )
        assert blob.startswith(b"HTTP/1.1 400")
        assert b"headers" in blob
        assert_server_still_serves(server)

    def test_oversized_header_bytes_is_400(self, server):
        config = ServeConfig()
        huge = b"X-Huge: " + b"a" * (config.max_header_bytes + 1) + b"\r\n"
        blob = send_raw(
            server, b"GET /healthz HTTP/1.1\r\n" + huge + b"\r\n"
        )
        assert blob.startswith(b"HTTP/1.1 400")
        assert_server_still_serves(server)


class TestContentLengthAbuse:
    @pytest.mark.parametrize(
        "value", [b"banana", b"-5", b"+3", b"0x10", b"1e3"]
    )
    def test_non_numeric_or_negative_content_length_is_400(
        self, server, value
    ):
        blob = send_raw(
            server,
            b"POST /batch HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n",
        )
        assert blob.startswith(b"HTTP/1.1 400")
        assert b"Content-Length" in blob
        assert_server_still_serves(server)

    def test_declared_body_over_cap_is_rejected_before_reading(self, server):
        declared = MAX_BODY_BYTES + 1
        blob = send_raw(
            server,
            b"POST /batch HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % declared,
        )
        assert blob.startswith(b"HTTP/1.1 400")
        assert_server_still_serves(server)

    def test_body_shorter_than_declared_then_close(self, server):
        # Client promises 100 bytes, sends 5, hangs up: readexactly
        # fails and the connection dies cleanly.
        blob = send_raw(
            server,
            b"POST /batch HTTP/1.1\r\nContent-Length: 100\r\n\r\nhello",
        )
        assert b"HTTP/1.1 200" not in blob
        assert_server_still_serves(server)


class TestKeepAliveAbuse:
    def test_garbage_mid_keep_alive_after_a_good_request(self, server):
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            status, _ = read_response(sock)
            assert status == 200
            # Same socket, now garbage: the server must answer 400 and
            # close, not desynchronize the keep-alive stream.
            sock.sendall(b"\x00\xff NOT HTTP AT ALL\r\n\r\n")
            status, _ = read_response(sock)
            assert status == 400
            assert sock.recv(65536) == b""  # closed after the 400
        assert_server_still_serves(server)

    def test_half_closed_socket_still_gets_its_response(self, server):
        # Client sends a full request then shuts down its write side:
        # the server must still answer on the read side.
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(WELL_FORMED)
            sock.shutdown(socket.SHUT_WR)
            status, body = read_response(sock)
            assert status == 200
            assert b"ok" in body
        assert_server_still_serves(server)

    def test_idle_keep_alive_socket_is_closed_by_the_server(self, server):
        # The module server's idle_timeout is 2s: a socket that sends
        # nothing must be closed, not held forever.
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.settimeout(10)
            assert sock.recv(65536) == b""  # server closes the idler
        assert_server_still_serves(server)


def test_malformed_counter_accounts_for_rejects(server):
    _, _, before = server.get("/stats")
    for blob in (
        b"ONEWORD\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
    ):
        assert send_raw(server, blob).startswith(b"HTTP/1.1 400")
    _, _, after = server.get("/stats")
    grew = (
        after["transport"]["malformed"] - before["transport"]["malformed"]
    )
    assert grew >= 2
    assert after["transport"]["idle_closed"] >= 0  # block always present
