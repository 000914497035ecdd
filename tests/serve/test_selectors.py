"""The selector contract: ``steps`` / ``levels`` / ``patches`` take
integers and ``fields`` field names, and nothing is coerced.

One rule (``container._normalize_selector``) sits under every ``select``,
``QueryService.query`` / ``plan`` and the TCP ``query`` op: a bool, a
fractional or non-finite number, or a bool array is a
:class:`~repro.errors.CompressionError` naming the selector — never patch 1
for ``True``, patch 1 for ``1.7``, or a bare ``OverflowError`` for ``inf``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.compression.amr_codec import compress_hierarchy
from repro.compression.container import ContainerReader
from repro.errors import CompressionError
from repro.insitu.series import SeriesReader
from repro.serve import InProcessClient, TCPClient

from tests.serve.conftest import running_server
from tests.strategies import step_hierarchy

FIELD = "f"
KIND = {"levels": "level", "patches": "patch"}

#: (selector keyword, value) pairs once coerced to an index or crashing, and
#: forms refused all along.
REFUSED = [
    ("patches", True),
    ("patches", np.True_),
    ("levels", False),
    ("patches", [1.7]),
    ("patches", np.array([1.9])),
    ("levels", [0.5]),
    ("patches", [float("inf")]),
    ("patches", [float("nan")]),
    ("patches", float("-inf")),
    ("patches", 1.5),
    ("patches", np.array([True, False])),
    ("patches", [0, True]),
    ("levels", np.float64(0.25)),
    ("patches", "0"),
    ("patches", [1 + 0j]),
]


@pytest.fixture(scope="module")
def reader():
    blob = compress_hierarchy(step_hierarchy(0, 16), "sz-lr", 1e-3).tobytes()
    return ContainerReader(blob)


def _id(case):
    return f"{case[0]}={case[1]!r}"


@pytest.mark.parametrize("case", REFUSED, ids=_id)
def test_container_select_refuses(reader, case):
    kind, value = case
    with pytest.raises(CompressionError, match=f"invalid {KIND[kind]} selector"):
        reader.select(fields=FIELD, **{kind: value})


@pytest.mark.parametrize("case", REFUSED, ids=_id)
def test_service_query_and_plan_refuse(series_path, case):
    kind, value = case
    with InProcessClient(series_path, decode_mode="serial") as client:
        with pytest.raises(CompressionError, match="selector"):
            client.query(steps=0, fields=FIELD, **{kind: value})
        with pytest.raises(CompressionError, match="selector"):
            client.plan(steps=0, fields=FIELD, **{kind: value})
        assert client.stats()["queries"] == 0


@pytest.mark.parametrize("steps", [True, [0.5], [float("inf")], np.array([True])])
def test_step_selectors_refused_everywhere(series_path, steps):
    with InProcessClient(series_path, decode_mode="serial") as client:
        with pytest.raises(CompressionError, match="invalid step selector"):
            client.query(steps=steps, fields=FIELD)
    with SeriesReader.open(series_path) as series:
        with pytest.raises(CompressionError, match="invalid step selector"):
            series.select(steps=steps, fields=FIELD)


def test_integral_numbers_of_any_integer_type_select(reader):
    want = reader.select(fields=FIELD, levels=[0, 1], patches=0)
    assert sorted(want) == [(0, FIELD, 0), (1, FIELD, 0)]
    for levels, patches in [
        (np.array([1, 0]), np.int64(0)),
        ([0.0, np.float32(1.0)], 0.0),
        (range(2), [np.uint8(0)]),
        ((lv for lv in (0, 1)), {0}),  # a one-shot iterator is read once
    ]:
        got = reader.select(fields=FIELD, levels=levels, patches=patches)
        assert sorted(got) == sorted(want)
        for key in want:
            assert np.array_equal(got[key], want[key])


def test_tcp_overflowing_selector_is_a_typed_refusal(series_path):
    with running_server(series_path) as (host, port):
        with TCPClient(host, port) as client:
            for raw in ('[1e999]', '1e999', 'true', '[0.5]', '[1, false]'):
                client._sock.sendall(
                    b'{"op": "query", "steps": 0, "patches": ' + raw.encode() + b"}\n"
                )
                reply = json.loads(client._rfile.readline())
                assert reply["ok"] is False, raw
                assert reply["type"] == "CompressionError", (raw, reply)
                assert "invalid patch selector" in reply["error"]
            # The connection still serves a well-formed query.
            assert sorted(client.query(steps=0, levels=0, fields=FIELD, patches=[0])) == [
                (0, 0, FIELD, 0)
            ]


def test_refusal_names_the_offending_item(reader):
    with pytest.raises(CompressionError, match=r"1\.7 is not an integer"):
        reader.select(patches=[0, 1.7])
    with pytest.raises(CompressionError, match=r"True is not an integer"):
        reader.select(levels=True)
