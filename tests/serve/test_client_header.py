"""``TCPClient`` does not trust the reply header it is sent.

A fake server on a local socket answers one request with a hostile reply.
Each used to escape as whatever the client tripped over first — a bare
``MemoryError`` (``nbytes`` 2**62 sized a read buffer up front), a
``ValueError`` (``nbytes`` disagreeing with ``shape``), a ``TypeError``
(an unparseable dtype), a ``JSONDecodeError`` (a non-JSON line). Every
case is now a :class:`~repro.errors.ServeError`, raised before anything is
sized by the header, and a payload is read in bounded chunks, so a lie
costs only the bytes actually received.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import TCPClient

from tests.serve.conftest import fake_server


def _query(reply: bytes):
    with fake_server(reply) as port, TCPClient("127.0.0.1", port, timeout=10) as client:
        return client.query_info(steps=0)


def _header(*patches, info=None) -> bytes:
    body = {"ok": True, "patches": list(patches), "info": {} if info is None else info}
    return json.dumps(body).encode() + b"\n"


def _patch(dtype="<f8", shape=(2, 2), nbytes=32, key=(0, 0, "f", 0)) -> dict:
    return {"key": list(key), "dtype": dtype, "shape": list(shape), "nbytes": nbytes}


def test_an_honest_reply_decodes():
    data = np.arange(4.0).reshape(2, 2)
    arrays, info = _query(_header(_patch(), info={"n": 1}) + data.tobytes())
    assert info == {"n": 1}
    assert np.array_equal(arrays[(0, 0, "f", 0)], data)
    assert not arrays[(0, 0, "f", 0)].flags.writeable


HOSTILE = {
    # the four reproducers
    "nbytes-2**62": _header(_patch(nbytes=1 << 62)),
    "nbytes-disagrees": _header(_patch(nbytes=24)) + bytes(24),
    "dtype-zz": _header(_patch(dtype="zz")) + bytes(32),
    "not-json": b"this is not json\n",
    # and their neighbours
    "not-an-object": b"[1, 2, 3]\n",
    "bad-utf8": b"\xff\xfe{}\n",
    "negative-dim": _header(_patch(shape=(-2, -2), nbytes=32)),
    "float-dim": _header(_patch(shape=(2.0, 2), nbytes=32)),
    "bool-dim": _header(_patch(shape=(True, 4), nbytes=32, dtype="<f8")),
    "string-nbytes": _header(_patch(nbytes="32")),
    "object-dtype": _header(_patch(dtype="O")) + bytes(32),
    "zero-itemsize": _header(_patch(dtype="V0", nbytes=0)),
    "short-key": _header(_patch(key=(0, 0, "f"))),
    "no-dtype": _header({"key": [0, 0, "f", 0], "shape": [1], "nbytes": 8}),
    "shape-not-a-list": _header(_patch() | {"shape": 4}),
    "patches-not-a-list": json.dumps({"ok": True, "patches": 7, "info": {}}).encode() + b"\n",
    "no-info": json.dumps({"ok": True, "patches": []}).encode() + b"\n",
    "closed-mid-payload": _header(_patch()) + bytes(10),
}


@pytest.mark.parametrize("case", HOSTILE)
def test_hostile_reply_is_a_serve_error(case):
    with pytest.raises(ServeError):
        _query(HOSTILE[case])


def test_a_consistent_lie_costs_only_the_bytes_received():
    """``shape`` and ``nbytes`` agree on 2**62 bytes, but 1 MB arrives."""
    reply = _header(_patch(dtype="<u1", shape=(1 << 31, 1 << 31), nbytes=1 << 62))
    tracemalloc.start()
    try:
        with pytest.raises(ServeError, match="closed mid-payload"):
            _query(reply + bytes(1 << 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
