"""TCP protocol round-trips and the ``serve`` CLI subcommand.

The socket layer must preserve the service's core guarantee — responses
byte-identical to direct reads — and its protocol errors must be
per-request, never per-connection or per-server.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.errors import DeadlineExceeded, Overloaded, ServeError, StorageError
from repro.serve import QueryService, TCPClient

from tests.serve.conftest import assert_byte_identical, direct_truth, running_server

REPO = Path(__file__).resolve().parents[2]


def test_tcp_query_byte_identical(series_path):
    with running_server(series_path) as (host, port):
        with TCPClient(host, port) as client:
            assert client.ping()
            served, info = client.query_info(steps=[1, 3], levels=1)
            assert info["fetched_bytes"] > 0
            assert_byte_identical(
                served, direct_truth(series_path, steps=[1, 3], levels=1)
            )
            # Warm repeat over the same socket: zero payload bytes.
            _, warm = client.query_info(steps=[1, 3], levels=1)
            assert warm["fetched_bytes"] == 0 and warm["meta_bytes"] == 0


def test_tcp_meta_plan_stats_ops(sharded_path):
    with running_server(sharded_path) as (host, port):
        with TCPClient(host, port) as client:
            meta = client.meta()
            assert meta["sharded"] is True
            assert meta["steps"] == [0, 1, 2, 3, 4, 5]
            assert meta["fields"] == ["f"]
            plan = client.plan(steps=[0, 1])
            assert plan["extent_bytes"] > 0
            assert plan["fetched_bytes"] <= int(1.25 * plan["extent_bytes"])
            client.query(steps=[0, 1])
            stats = client.stats()
            assert stats["queries"] == 1
            assert stats["payload_bytes"] > 0


def test_tcp_errors_are_per_request(series_path):
    with running_server(series_path) as (host, port):
        with TCPClient(host, port) as client:
            with pytest.raises(ServeError, match="unknown op"):
                client._request({"op": "frobnicate"})
            with pytest.raises(ServeError, match="region"):
                client.query(steps=0, levels=0, region=[[0, 1]])  # wrong ndim
            # Malformed JSON on the raw socket: reported, not fatal.
            client._sock.sendall(b"{not json\n")
            reply = json.loads(client._rfile.readline())
            assert reply["ok"] is False and "JSON" in reply["error"]
            # The connection (and server) still answer real queries.
            served = client.query(steps=0, levels=0)
            assert_byte_identical(
                served, direct_truth(series_path, steps=0, levels=0)
            )


def test_tcp_concurrent_clients(series_path):
    selections = [
        {"steps": [0]}, {"steps": [1], "levels": [1]},
        {"steps": [2], "levels": [0]}, {"steps": [3]},
        {"levels": [1]}, {"steps": [0, 2], "patches": [0]},
    ]
    with running_server(series_path) as (host, port):

        def worker(sel):
            with TCPClient(host, port) as client:
                return sel, client.query(**sel)

        with ThreadPoolExecutor(max_workers=6) as pool:
            outcomes = list(pool.map(worker, selections))
    for sel, served in outcomes:
        assert_byte_identical(served, direct_truth(series_path, **sel))


def test_tcp_partial_query_reports_missing_shard(sharded_path):
    from repro.faults import FaultPlan
    from repro.storage import LocalFileBackend, RangedBackend

    plan = FaultPlan()
    backend = RangedBackend(
        LocalFileBackend(), readahead=1 << 12, max_retries=0,
        sleep=lambda s: None, fault=plan,
    )
    with running_server(
        sharded_path, backend=backend, breaker_threshold=None
    ) as (host, port):
        with TCPClient(host, port) as client:
            # Find the shard owning step 0 from a clean plan, then kill it.
            stats_before = client.stats()
            assert stats_before["partial_queries"] == 0
            victim_holder: dict = {}

            def victim_match(name, off, length):
                victim_holder.setdefault("name", name)
                return name == victim_holder["name"]

            # First failing GET names the shard; every later GET to the
            # same file fails too — a single-shard outage.
            plan.always(victim_match, kind="storage")
            with pytest.raises(StorageError, match="injected storage fault"):
                client.query(steps=0)
            served, info = client.query_info(partial=True)
            assert info["partial"] is True
            assert info["missing"], "dead shard not reported"
            missing_steps = sorted({m["step"] for m in info["missing"]})
            assert 0 in missing_steps
            for m in info["missing"]:
                assert m["error"] == "StorageError"
                assert "injected storage fault" in m["detail"]
            served_steps = sorted({k[0] for k in served})
            assert set(served_steps).isdisjoint(missing_steps)
            assert_byte_identical(
                served, direct_truth(sharded_path, steps=served_steps)
            )
            # The outage ends: the same query is complete again.
            plan.clear()
            full, info2 = client.query_info(partial=True)
            assert info2["missing"] == []
            assert_byte_identical(full, direct_truth(sharded_path))


def test_tcp_query_timeout_is_typed_and_connection_survives(series_path):
    from repro.faults import FaultPlan
    from repro.storage import LocalFileBackend, RangedBackend

    plan = FaultPlan()
    backend = RangedBackend(
        LocalFileBackend(), readahead=1 << 12, max_retries=0, fault=plan,
    )
    with running_server(series_path, backend=backend) as (host, port):
        with TCPClient(host, port) as client:
            plan.latency(0.5)
            with pytest.raises(DeadlineExceeded, match="timeout"):
                client.query(steps=0, levels=0, timeout=0.05)
            plan.clear()
            # Same connection, same selection, no deadline: clean bytes.
            served = client.query(steps=0, levels=0)
            assert_byte_identical(
                served, direct_truth(series_path, steps=0, levels=0)
            )


def test_tcp_idle_timeout_reclaims_connection(series_path):
    import time

    with running_server(
        series_path, server_kwargs={"idle_timeout": 0.2}
    ) as (host, port):
        client = TCPClient(host, port)
        assert client.ping()
        time.sleep(0.6)  # stay silent past the idle timeout
        with pytest.raises(ServeError, match="closed"):
            client.ping()
        client.close()
        # A fresh connection serves normally.
        with TCPClient(host, port) as client2:
            assert client2.ping()


def test_tcp_connection_cap_refuses_with_retry_after(series_path):
    import time

    with running_server(
        series_path, server_kwargs={"max_connections": 1}
    ) as (host, port):
        first = TCPClient(host, port)
        assert first.ping()
        second = TCPClient(host, port)
        with pytest.raises(Overloaded, match="connection cap") as exc_info:
            second.ping()
        assert exc_info.value.retry_after is not None
        second.close()
        first.close()
        # The slot frees up once the first client is gone.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                with TCPClient(host, port) as again:
                    assert again.ping()
                break
            except Overloaded:
                time.sleep(0.05)
        else:
            pytest.fail("connection slot never freed after close")


def test_shutdown_op_stops_server(series_path):
    with running_server(series_path) as (host, port):
        with TCPClient(host, port) as client:
            client.shutdown()
        # New connections are refused once the listener is down.
        import socket, time

        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                socket.create_connection((host, port), timeout=0.5).close()
            except OSError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("listener still accepting after shutdown op")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _spawn_serve(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.compression", "serve", *map(str, args)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=REPO,
    )


def _bound_address_of(line: str) -> tuple[str, int]:
    m = re.search(r"on ([\d.]+):(\d+)\s*$", line)
    assert m, f"cannot parse serve banner: {line!r}"
    return m.group(1), int(m.group(2))


def _bound_address(proc) -> tuple[str, int]:
    return _bound_address_of(proc.stdout.readline())


def test_cli_serve_roundtrip_and_shutdown(series_path):
    proc = _spawn_serve(series_path, "--port", "0")
    try:
        host, port = _bound_address(proc)
        with TCPClient(host, port) as client:
            meta = client.meta()
            assert meta["steps"] == [0, 1, 2, 3]
            served = client.query(steps=2, levels=1)
            assert_byte_identical(
                served, direct_truth(series_path, steps=2, levels=1)
            )
            client.shutdown()
        assert proc.wait(timeout=15) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_cli_serve_recovered_series(series_path, tmp_path):
    import shutil

    torn = tmp_path / "torn.rph2s"
    shutil.copy(series_path, torn)
    with open(torn, "r+b") as f:
        f.truncate(torn.stat().st_size - 40)
    proc = _spawn_serve(torn, "--recover")
    try:
        host, port = _bound_address(proc)
        with TCPClient(host, port) as client:
            assert client.meta()["recovered"] is True
            served = client.query(steps=1, levels=0)
            assert_byte_identical(
                served, direct_truth(series_path, steps=1, levels=0)
            )
            client.shutdown()
        assert proc.wait(timeout=15) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_cli_serve_banner_reports_the_sniffed_kind(series_path, sharded_path, snapshot_path, tmp_path):
    """A one-step series under an alien suffix is a series (the parent's
    banner guessed "snapshot" from the step count and the file name)."""
    from repro.amr.io import write_series
    from tests.strategies import step_hierarchy

    one = tmp_path / "one.dat"
    write_series(one, [step_hierarchy(0, 16)], "sz-lr", 1e-3)
    kinds = {one: "series", series_path: "series", sharded_path: "campaign",
             snapshot_path: "snapshot"}
    for path, kind in kinds.items():
        service = QueryService(path)
        try:
            assert service.kind == kind and service.is_sharded == (kind == "campaign")
        finally:
            service.close()
    proc = _spawn_serve(one, "--port", "0")
    try:
        line = proc.stdout.readline()
        assert re.search(r"^serving \S+ \(series, 1 step\(s\), .* on [\d.]+:\d+\s*$", line), line
        with TCPClient(*_bound_address_of(line)) as client:
            client.shutdown()
        assert proc.wait(timeout=15) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_cli_serve_refuses_garbage(tmp_path):
    bogus = tmp_path / "bogus.bin"
    bogus.write_bytes(b"NOTAFORMAT" * 10)
    proc = _spawn_serve(bogus)
    out, err = proc.communicate(timeout=30)
    assert proc.returncode != 0
    assert "RPH2" in err  # names the formats it can serve
