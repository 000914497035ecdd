"""TCP front end for the query service: JSON-line control, raw-byte data.

The wire protocol is deliberately minimal — one JSON object per request
line, one JSON header line per response, followed (for ``query``) by the
selected patches' raw array bytes back to back in header order:

.. code-block:: text

    -> {"op": "query", "steps": [3], "levels": 1, "fields": "f"}\\n
    <- {"ok": true, "patches": [{"key": [3, 1, "f", 0],
        "dtype": "<f8", "shape": [16, 16, 16], "nbytes": 32768}, ...],
        "info": {...}}\\n
    <- <raw little-endian array bytes, concatenated in header order>

Arrays travel as C-order ``tobytes()`` — the concurrency suite asserts
byte-identity across the socket, not just value-identity. Other ops are
pure JSON lines: ``meta`` (what is being served), ``stats`` (service
counters), ``plan`` (the byte plan a query would execute, for
inspection), ``ping``, and ``shutdown`` (drains and stops the server —
how the CLI's process is remote-controlled in tests). Errors come back
as ``{"ok": false, "error": ..., "type": <exception class>}`` and never
tear down the connection or the server; one bad query leaves every other
in-flight client untouched.

:class:`QueryServer` is the asyncio side (used by ``python -m
repro.compression serve``); :class:`TCPClient` is a small blocking
client for tests, scripts, and tools — one request per call, safe to use
from one thread at a time.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import asdict
from typing import Any

import numpy as np

from repro.errors import (
    DeadlineExceeded,
    Overloaded,
    ReproError,
    ServeError,
    StorageError,
)
from repro.serve.service import QueryService

__all__ = ["QueryServer", "TCPClient", "MAX_REQUEST_BYTES", "MAX_REPLY_HEADER_BYTES"]

#: Requests are single JSON lines; anything longer than this is refused
#: (a malformed or hostile client, not a real selection).
MAX_REQUEST_BYTES = 1 << 20
#: A reply's JSON header line longer than this is refused by the client
#: (~120 bytes per patch: 130 k patches in one query).
MAX_REPLY_HEADER_BYTES = 1 << 24

_SELECTOR_KEYS = ("steps", "levels", "fields", "patches")


def _selectors(req: dict) -> dict:
    """Pull the query selectors out of a request object."""
    out: dict[str, Any] = {k: req.get(k) for k in _SELECTOR_KEYS}
    region = req.get("region")
    if region is not None:
        out["region"] = [tuple(pair) for pair in region]
    out["verify"] = bool(req.get("verify", True))
    timeout = req.get("timeout")
    if timeout is not None:
        out["timeout"] = float(timeout)
    if req.get("partial"):
        out["partial"] = True
    return out


class QueryServer:
    """Serve one :class:`~repro.serve.service.QueryService` over TCP.

    ``idle_timeout`` (seconds) drops a connection whose client stays
    silent between requests — a stalled or vanished client cannot hold a
    connection slot forever. ``max_connections`` caps concurrently open
    connections; clients over the cap get a typed ``Overloaded`` refusal
    (with ``retry_after``) instead of an unexplained hang. Both default
    to unlimited.

    .. code-block:: python

        service = QueryService("run.rph2s")
        server = QueryServer(service, idle_timeout=300, max_connections=64)
        await server.start()          # binds (host, port); port 0 = pick
        print(server.address)
        await server.serve_until_shutdown()
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        idle_timeout: float | None = None,
        max_connections: int | None = None,
    ):
        if idle_timeout is not None and idle_timeout <= 0:
            raise ServeError(f"idle_timeout must be > 0, got {idle_timeout}")
        if max_connections is not None and max_connections < 1:
            raise ServeError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        self._service = service
        self._host = host
        self._port = port
        self._idle_timeout = idle_timeout
        self._max_connections = max_connections
        self._connections = 0
        self._refused = 0
        self._idle_drops = 0
        self._server: asyncio.base_events.Server | None = None
        self._shutdown = asyncio.Event()

    # kept: operator need: the server's open connections
    @property
    def connections(self) -> int:
        """Currently open client connections."""
        return self._connections

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — call after :meth:`start`."""
        if self._server is None:
            raise ServeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> "QueryServer":
        if self._server is not None:
            raise ServeError("server is already started")
        # A line's newline may sit at index ``limit``: lines of up to
        # MAX_REQUEST_BYTES are read whole, longer ones overrun.
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port, limit=MAX_REQUEST_BYTES - 1
        )
        return self

    async def serve_until_shutdown(self) -> None:
        """Run until a client sends ``{"op": "shutdown"}`` or :meth:`stop`."""
        if self._server is None:
            raise ServeError("server is not started")
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop accepting, close the listener and the service."""
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._service.close()

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if (
            self._max_connections is not None
            and self._connections >= self._max_connections
        ):
            # Over the cap: refuse with a typed reply rather than letting
            # idle sockets starve the server, then drop the connection.
            self._refused += 1
            await self._reply(
                writer,
                {"ok": False, "type": "Overloaded",
                 "error": f"server at its {self._max_connections}-connection "
                          "cap; retry shortly", "retry_after": 0.1},
            )
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return
        self._connections += 1
        try:
            while not self._shutdown.is_set():
                try:
                    line = await asyncio.wait_for(
                        self._read_request(reader), self._idle_timeout
                    )
                except asyncio.TimeoutError:
                    # Idle past the per-connection read timeout: reclaim
                    # the slot (the client can reconnect).
                    self._idle_drops += 1
                    break
                except ConnectionError:
                    break
                if line is None:
                    await self._reply(
                        writer,
                        {"ok": False, "type": "ServeError",
                         "error": f"request exceeds {MAX_REQUEST_BYTES} bytes"},
                    )
                    continue
                if not line:
                    break
                stop = await self._dispatch(writer, line)
                if stop:
                    break
        finally:
            self._connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # client already gone
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader) -> bytes | None:
        """The next request line (``b""`` at end of stream), or ``None`` for a
        line over :data:`MAX_REQUEST_BYTES` — read through its newline and
        dropped, so the next request starts clean."""
        try:
            return await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return exc.partial
        except asyncio.LimitOverrunError:
            pass
        while True:
            try:
                await reader.readuntil(b"\n")
                return None
            except asyncio.LimitOverrunError as exc:
                await reader.readexactly(exc.consumed)
            except asyncio.IncompleteReadError:
                return None

    async def _dispatch(self, writer: asyncio.StreamWriter, line: bytes) -> bool:
        """Run one request; returns True when the connection should end."""
        try:
            req = json.loads(line)
            if not isinstance(req, dict):
                raise ServeError("request must be a JSON object")
            op = req.get("op")
            if op == "query":
                results, info = await self._service.query_info(
                    **_selectors(req)
                )
                header = {
                    "ok": True,
                    "patches": [
                        {
                            "key": list(key),
                            "dtype": arr.dtype.str,
                            "shape": list(arr.shape),
                            "nbytes": int(arr.nbytes),
                        }
                        for key, arr in results.items()
                    ],
                    "info": asdict(info),
                    # Degraded-serving health flags, lifted out of info
                    # so thin clients need not parse the accounting.
                    "partial": bool(info.partial),
                    "missing": list(info.missing),
                }
                await self._reply(
                    writer, header,
                    payload=[np.ascontiguousarray(a) for a in results.values()],
                )
                return False
            if op == "plan":
                plan = await self._service.plan(
                    **{
                        k: v
                        for k, v in _selectors(req).items()
                        if k != "region"
                    }
                )
                await self._reply(
                    writer,
                    {
                        "ok": True,
                        "extent_bytes": plan.extent_bytes,
                        "fetched_bytes": plan.fetched_bytes,
                        "slack_bytes": plan.slack_bytes,
                        "n_reads": plan.n_reads,
                        "n_group_batches": plan.n_group_batches,
                        "steps": [s.step for s in plan.steps],
                    },
                )
                return False
            if op == "stats":
                stats = self._service.stats
                stats["server"] = {
                    "connections": self._connections,
                    "max_connections": self._max_connections,
                    "idle_timeout": self._idle_timeout,
                    "refused": self._refused,
                    "idle_drops": self._idle_drops,
                }
                await self._reply(writer, {"ok": True, "stats": stats})
                return False
            if op == "meta":
                svc = self._service
                await self._reply(
                    writer,
                    {
                        "ok": True,
                        "path": svc.path,
                        "steps": list(svc.steps),
                        "fields": list(svc.fields),
                        "codec": svc.codec,
                        "error_bound": svc.error_bound,
                        "mode": svc.mode,
                        "sharded": svc.is_sharded,
                        "recovered": svc.recovered,
                    },
                )
                return False
            if op == "ping":
                await self._reply(writer, {"ok": True})
                return False
            if op == "shutdown":
                await self._reply(writer, {"ok": True})
                self._shutdown.set()
                return True
            raise ServeError(f"unknown op {op!r}")
        except Overloaded as exc:
            await self._reply(
                writer,
                {"ok": False, "type": "Overloaded", "error": str(exc),
                 "retry_after": exc.retry_after},
            )
            return False
        except ReproError as exc:
            await self._reply(
                writer,
                {"ok": False, "type": type(exc).__name__, "error": str(exc)},
            )
            return False
        except json.JSONDecodeError as exc:
            await self._reply(
                writer,
                {"ok": False, "type": "ServeError",
                 "error": f"request is not valid JSON: {exc}"},
            )
            return False
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Defensive: an unexpected bug must fail the request, never
            # the connection (other in-flight clients are untouched).
            await self._reply(
                writer,
                {"ok": False, "type": type(exc).__name__,
                 "error": f"unexpected server error: {exc}"},
            )
            return False

    @staticmethod
    async def _reply(
        writer: asyncio.StreamWriter, header: dict, payload=None
    ) -> None:
        try:
            writer.write(json.dumps(header).encode() + b"\n")
            for arr in payload or ():
                writer.write(arr.tobytes())
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away mid-reply; nothing to salvage


def _patch_spec(spec) -> tuple:
    """``(key, dtype, shape, nbytes)`` of one patch of a query reply, checked
    before anything is sized by it: a dtype NumPy fills from bytes, a shape
    of non-negative ints, ``nbytes`` exactly what they hold."""
    try:
        step, level, field, patch = spec["key"]
        key = (int(step), int(level), str(field), int(patch))
        dtype, shape, nbytes = np.dtype(spec["dtype"]), list(spec["shape"]), spec["nbytes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(f"malformed patch in the reply header: {exc!r}") from None
    if (dtype.hasobject or not dtype.itemsize
            or not all(type(n) is int and n >= 0 for n in [nbytes, *shape])
            or nbytes != math.prod(shape) * dtype.itemsize):
        raise ServeError(f"reply header patch {key}: nbytes {nbytes!r} is not "
                         f"shape {shape!r} of {dtype.str}")
    return key, dtype, shape, nbytes


class TCPClient:
    """Blocking client for :class:`QueryServer` (tests/scripts/tools).

    .. code-block:: python

        with TCPClient("127.0.0.1", port) as client:
            arrays = client.query(steps=3, levels=1, fields="f")
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        import socket

        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")

    def _request(self, obj: dict) -> dict:
        self._sock.sendall(json.dumps(obj).encode() + b"\n")
        line = self._rfile.readline(MAX_REPLY_HEADER_BYTES + 1)
        if not line:
            raise ServeError("server closed the connection")
        if len(line) > MAX_REPLY_HEADER_BYTES:
            raise ServeError(f"reply header exceeds {MAX_REPLY_HEADER_BYTES} bytes")
        try:
            header = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, bad UTF-8
            raise ServeError(f"reply header is not JSON: {exc}") from None
        if not isinstance(header, dict):
            raise ServeError("reply header is not a JSON object")
        if not header.get("ok"):
            etype = header.get("type", "unknown")
            msg = header.get("error", "?")
            # Resilience errors come back typed so callers can react
            # (retry after a hint, extend a deadline) without parsing.
            if etype == "Overloaded":
                raise Overloaded(
                    f"server error (Overloaded): {msg}",
                    retry_after=header.get("retry_after"),
                )
            if etype == "DeadlineExceeded":
                raise DeadlineExceeded(
                    f"server error (DeadlineExceeded): {msg}"
                )
            if etype in (
                "StorageError", "TransientStorageError", "CircuitOpenError"
            ):
                raise StorageError(f"server error ({etype}): {msg}")
            raise ServeError(f"server error ({etype}): {msg}")
        return header

    def _read_exact(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:  # 1 MiB reads at most: a lie costs only what arrives
            chunk = self._rfile.read(min(n - len(out), 1 << 20))
            if not chunk:
                raise ServeError(
                    f"server closed mid-payload ({len(out)} of {n} bytes)"
                )
            out += chunk
        return bytes(out)

    def query_info(self, **selectors) -> tuple[dict, dict]:
        """Run a query; returns ``(arrays, info-dict)`` with arrays keyed
        ``(step, level, field, patch)``, read-only, byte-identical to the
        server's."""
        header = self._request({"op": "query", **selectors})
        patches, info = header.get("patches"), header.get("info")
        if not isinstance(patches, list) or not isinstance(info, dict):
            raise ServeError("query reply header lacks its patch list or info")
        out: dict[tuple, np.ndarray] = {}
        for spec in patches:
            key, dtype, shape, nbytes = _patch_spec(spec)
            arr = np.frombuffer(self._read_exact(nbytes), dtype=dtype).reshape(shape)
            arr.setflags(write=False)
            out[key] = arr
        return out, info

    def query(self, **selectors) -> dict:
        """Synchronous selective read over the socket."""
        return self.query_info(**selectors)[0]

    def plan(self, **selectors) -> dict:
        """Byte plan the server would execute for these selectors."""
        header = self._request({"op": "plan", **selectors})
        return {k: v for k, v in header.items() if k != "ok"}

    def stats(self) -> dict:
        """Server-side cumulative counters."""
        return self._request({"op": "stats"})["stats"]

    def meta(self) -> dict:
        """What the server is serving (path/steps/fields/codec/...)."""
        return {
            k: v for k, v in self._request({"op": "meta"}).items() if k != "ok"
        }

    def ping(self) -> bool:
        return bool(self._request({"op": "ping"})["ok"])

    def shutdown(self) -> None:
        """Ask the server to drain and exit (it replies before stopping)."""
        self._request({"op": "shutdown"})

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "TCPClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
