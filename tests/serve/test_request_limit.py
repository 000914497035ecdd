"""Long lines on the TCP protocol: read whole up to the limit, refused typed
above it, on both ends.

The server used to read with asyncio's default 64 KiB stream limit: a
100 000-byte request line got no reply at all and a closed connection, and
a line over :data:`~repro.serve.net.MAX_REQUEST_BYTES` a connection reset —
the ``request exceeds`` reply was unreachable. The client read the reply
header with an unbounded ``readline()``.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.errors import ServeError
from repro.serve import TCPClient, net
from repro.serve.net import MAX_REQUEST_BYTES

from tests.serve.conftest import fake_server, running_server


def ping_line(length: int) -> bytes:
    """A ``ping`` request padded to ``length`` bytes, newline included."""
    head, tail = b'{"op": "ping", "pad": "', b'"}\n'
    return head + b"x" * (length - len(head) - len(tail)) + tail


class RawConnection:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.rfile = self.sock.makefile("rb")

    def ask(self, line: bytes) -> dict:
        self.sock.sendall(line)
        return json.loads(self.rfile.readline())

    def close(self):
        self.rfile.close()
        self.sock.close()


@pytest.fixture
def connect(series_path):
    opened = []
    with running_server(series_path) as address:
        def connect():
            opened.append(RawConnection(address))
            return opened[-1]
        yield connect
        for conn in opened:
            conn.close()


@pytest.mark.parametrize("length", [100_000, MAX_REQUEST_BYTES])
def test_a_long_request_up_to_the_limit_is_answered(connect, length):
    assert connect().ask(ping_line(length)) == {"ok": True}


@pytest.mark.parametrize("length", [MAX_REQUEST_BYTES + 1, MAX_REQUEST_BYTES + 10, 3 << 20])
def test_a_request_over_the_limit_gets_the_typed_reply(connect, length):
    conn = connect()
    reply = conn.ask(ping_line(length))
    assert reply["ok"] is False and reply["type"] == "ServeError"
    assert f"request exceeds {MAX_REQUEST_BYTES} bytes" in reply["error"]
    # The rest of the line was dropped: the connection serves the next one.
    assert conn.ask(b'{"op": "ping"}\n') == {"ok": True}


def test_an_unterminated_line_over_the_limit_ending_the_stream(connect):
    conn = connect()
    conn.sock.sendall(b"x" * (2 * MAX_REQUEST_BYTES))
    conn.sock.shutdown(socket.SHUT_WR)
    reply = json.loads(conn.rfile.readline())
    assert reply["type"] == "ServeError" and "request exceeds" in reply["error"]
    assert conn.rfile.readline() == b""  # then the server closes


def test_the_client_refuses_an_over_long_reply_header(monkeypatch):
    monkeypatch.setattr(net, "MAX_REPLY_HEADER_BYTES", 1000, raising=False)
    body = {"ok": True, "patches": [], "info": {"pad": "x" * 5000}}
    with fake_server(json.dumps(body).encode() + b"\n") as port:
        with TCPClient("127.0.0.1", port, timeout=10) as client:
            with pytest.raises(ServeError, match="reply header exceeds 1000 bytes"):
                client.query_info(steps=0)


def test_the_client_reads_a_header_of_exactly_the_limit(monkeypatch):
    body = json.dumps({"ok": True, "patches": [], "info": {"pad": ""}}).encode()
    pad = 1000 - len(body) - 1
    line = json.dumps({"ok": True, "patches": [], "info": {"pad": "x" * pad}}).encode() + b"\n"
    assert len(line) == 1000
    monkeypatch.setattr(net, "MAX_REPLY_HEADER_BYTES", 1000, raising=False)
    with fake_server(line) as port:
        with TCPClient("127.0.0.1", port, timeout=10) as client:
            assert client.query_info(steps=0) == ({}, {"pad": "x" * pad})
