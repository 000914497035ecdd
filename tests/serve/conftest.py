"""Shared sources for the serve suite: one small series, one sharded
campaign, and one grouped snapshot, each step holding *distinct* data so
byte-identity checks cannot pass by accident; the ground truth they are
checked against; and the two servers the network tests talk to, a real
``QueryServer`` on a background loop and a one-reply fake."""

from __future__ import annotations

import asyncio
import socket
import threading
from contextlib import contextmanager

import pytest

from repro.amr.hierarchy import AMRHierarchy
from repro.amr.io import write_series, write_sharded_series
from repro.amr.level import AMRLevel
from repro.compression.amr_codec import compress_hierarchy, decompress_selection
from repro.serve import QueryServer, QueryService

from tests.strategies import many_patch_hierarchy, step_hierarchy

N_STEPS = 4
N_SHARD_STEPS = 6
N_SHARDS = 3


@pytest.fixture(scope="session")
def series_path(tmp_path_factory):
    """A 4-step RPH2S series with per-step distinct data."""
    path = tmp_path_factory.mktemp("serve") / "run.rph2s"
    write_series(path, [step_hierarchy(s, 16) for s in range(N_STEPS)], "sz-lr", 1e-3)
    return path


@pytest.fixture(scope="session")
def sharded_path(tmp_path_factory):
    """A 6-step, 3-shard RPHM campaign with per-step distinct data."""
    path = tmp_path_factory.mktemp("serve-sharded") / "camp.rphm"
    write_sharded_series(
        path,
        [step_hierarchy(s, 16) for s in range(N_SHARD_STEPS)],
        "sz-lr",
        1e-3,
        n_shards=N_SHARDS,
    )
    return path


def grouped_step_hierarchy():
    """Two levels of many small patches (16 coarse, 60 fine) holding one
    field ``f``: each level is one run of patches, so one RPGB group."""
    h = many_patch_hierarchy()
    levels = [AMRLevel(lev.index, lev.boxes, lev.dx, {"f": lev.patches("a")}) for lev in h]
    return AMRHierarchy(h.domain, levels, h.ref_ratios)


@pytest.fixture(scope="session")
def snapshot_path(tmp_path_factory):
    """A standalone RPH2 snapshot of many-patch levels — the only source of
    these fixtures whose streams live in RPGB shared-codebook groups (the
    series and campaign hold one patch per level, and a run of one patch
    is not grouped), so this is what exercises batched decode."""
    path = tmp_path_factory.mktemp("serve-snap") / "snap.rph2"
    path.write_bytes(compress_hierarchy(grouped_step_hierarchy(), "sz-lr", 1e-3).tobytes())
    return path


def direct_truth(path, **selectors):
    """Fresh single-threaded ground truth, keyed like the service: a
    4-tuple ``(step, level, field, patch)`` even for snapshots (which the
    service exposes as step 0, so a ``steps`` selector without 0 is an
    empty selection)."""
    with open(path, "rb") as probe:
        head = probe.read(5)
    if head[:4] == b"RPH2" and head != b"RPH2S":
        steps = selectors.pop("steps", None)
        if steps is not None:
            wanted = {steps} if isinstance(steps, int) else set(steps)
            if 0 not in wanted:
                return {}
    out = decompress_selection(path, **selectors)
    return {
        (k if len(k) == 4 else (0, *k)): v for k, v in out.items()
    }


def assert_byte_identical(served: dict, truth: dict):
    assert set(served) == set(truth), (
        f"key sets differ: served-only {set(served) - set(truth)}, "
        f"truth-only {set(truth) - set(served)}"
    )
    for key in served:
        a, b = served[key], truth[key]
        assert a.dtype == b.dtype and a.shape == b.shape, key
        assert a.tobytes() == b.tobytes(), f"bytes differ for {key}"


@contextmanager
def running_server(path, server_kwargs=None, **service_kwargs):
    """A QueryServer on a background event-loop thread; yields (host, port)."""
    started = threading.Event()
    box: dict = {}

    async def main():
        service = QueryService(path, workers=2, **service_kwargs)
        server = QueryServer(service, **(server_kwargs or {}))
        await server.start()
        box["addr"] = server.address
        box["loop"] = asyncio.get_running_loop()
        box["stop"] = stop = asyncio.Event()
        started.set()
        serving = asyncio.ensure_future(server.serve_until_shutdown())
        # Until a shutdown op ends the server, or the test is done with it.
        await asyncio.wait(
            [serving, asyncio.ensure_future(stop.wait())],
            return_when=asyncio.FIRST_COMPLETED,
        )
        await server.stop()
        await serving

    # asyncio.run cancels what is left (connection handlers) and closes
    # the loop and its executor before the thread ends.
    thread = threading.Thread(target=lambda: asyncio.run(main()), daemon=True)
    thread.start()
    assert started.wait(15), "server did not start"
    try:
        yield box["addr"]
    finally:
        try:
            box["loop"].call_soon_threadsafe(box["stop"].set)
        except RuntimeError:  # a shutdown op already ended the loop
            pass
        thread.join(timeout=15)


@contextmanager
def fake_server(reply: bytes):
    """Serve one connection: read one request line, send ``reply``, close."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)

    def serve():
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        with conn:
            conn.makefile("rb").readline()
            try:
                conn.sendall(reply)
            except OSError:  # the client stopped reading: that is its answer
                pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1]
    finally:
        listener.close()
        thread.join(10)
