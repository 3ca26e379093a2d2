"""Asyncio front door of the extraction service (the ``/v1/`` server).

One event loop serves every connection — no thread per request — and
bridges to the existing thread-based
:class:`~repro.service.scheduler.Scheduler` through executor calls (for
the blocking submit/wait paths) and
:meth:`~repro.service.scheduler.Scheduler.submit`'s watcher hook (for
push-style progress, marshalled onto the loop with
``call_soon_threadsafe``).  This is the service's only HTTP front end, and
everything on its wire is the declarative JSON schema of
:mod:`~repro.service.wire` — no pickle on any route.

========  ======================  =========================================
method    path                    body / behaviour
========  ======================  =========================================
POST      /v1/jobs                wire request document → ``{"job_id",
                                  "status", "schema_version"}`` (202)
GET       /v1/jobs/<id>           ``?wait_s=`` → wire job snapshot
DELETE    /v1/jobs/<id>           cancel a queued job
POST      /v1/stream              ``{"requests": [...]}`` → chunked NDJSON:
                                  ``submitted`` / ``columns`` / ``done`` /
                                  ``error`` / ``end`` events; columns are
                                  pushed **as their coalesced group's solve
                                  lands**, before the owning job completes
POST      /v1/pairs               one pair query; the server micro-batches
                                  concurrent queries over the same
                                  fingerprint into a single submit
GET       /v1/stats               metrics snapshot (incl. ``frontdoor``)
GET       /v1/healthz             liveness (503 when stuck)
========  ======================  =========================================

Every 4xx/5xx body is the one error envelope
``{"error": {"code", "message", "retry_after"}}``; any other path answers
404 ``not_found``.

The HTTP layer itself is a deliberately small HTTP/1.1 implementation over
``asyncio.start_server`` (stdlib only; one request per connection,
``Connection: close``); responses with unbounded bodies use chunked
transfer encoding, which is what lets ``/v1/stream`` flush one NDJSON
event at a time.
"""

from __future__ import annotations

import argparse
import asyncio
import hmac
import json
import os
import threading
import time
from functools import partial
from urllib.parse import parse_qs, unquote, urlparse

import numpy as np

from .jobs import (
    SCHEMA_VERSION,
    JobExpiredError,
    JobRequest,
    JobState,
    QueueSaturatedError,
)
from .scheduler import Scheduler
from .wire import (
    WireFormatError,
    encode_array,
    error_envelope,
    request_from_wire,
    snapshot_to_wire,
    spec_from_wire,
    v1_cancel,
    v1_snapshot,
    v1_submit,
)

__all__ = ["AsyncExtractionServer", "main"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    410: "Gone",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: sentinel for "wait_s present but not a number" (None means "no wait")
WAIT_INVALID = object()


class _PairBatcher:
    """HTTP-layer micro-batching of small pair queries (the PR-5 follow-up).

    Concurrent ``/v1/pairs`` queries over the same request fingerprint are
    held for a short window (or until ``max_batch`` arrive) and collapsed
    into **one** scheduler submit carrying the union of their pairs; each
    caller gets back exactly the values it asked for.  Coalescing in the
    scheduler still works across batches — this layer just stops a swarm
    of tiny jobs from paying per-job submit/journal/queue overhead.
    Single-threaded by construction: all state is touched on the event
    loop only.
    """

    def __init__(self, server: "AsyncExtractionServer", window_s: float, max_batch: int) -> None:
        self._server = server
        self._window_s = float(window_s)
        self._max_batch = int(max_batch)
        self._buckets: dict[str, list] = {}
        self._timers: dict[str, asyncio.TimerHandle] = {}

    async def query(self, request: JobRequest) -> tuple[np.ndarray, str, int]:
        """Queue one pair query; resolves to ``(values, job_id, batch size)``."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        key = request.fingerprint
        bucket = self._buckets.setdefault(key, [])
        bucket.append((request, future))
        if len(bucket) >= self._max_batch:
            timer = self._timers.pop(key, None)
            if timer is not None:
                timer.cancel()
            self._spawn_flush(key)
        elif len(bucket) == 1:
            self._timers[key] = loop.call_later(
                self._window_s, self._spawn_flush, key
            )
        return await future

    def _spawn_flush(self, key: str) -> None:
        task = asyncio.ensure_future(self._flush(key))
        # a flush failing should surface on the waiters, never be swallowed
        task.add_done_callback(lambda t: t.exception())

    async def _flush(self, key: str) -> None:
        self._timers.pop(key, None)
        bucket = self._buckets.pop(key, [])
        if not bucket:
            return
        first = bucket[0][0]
        union = sorted({pair for request, _ in bucket for pair in request.pairs})
        timeouts = [r.timeout_s for r, _ in bucket if r.timeout_s is not None]
        merged = JobRequest(
            first.spec,
            pairs=tuple(union),
            tolerance=first.tolerance,
            priority=max(request.priority for request, _ in bucket),
            timeout_s=max(timeouts) if timeouts else None,
        )
        scheduler = self._server.scheduler
        scheduler.metrics.record_microbatch(len(bucket), 1)
        loop = asyncio.get_running_loop()
        try:
            job_id = await loop.run_in_executor(None, scheduler.submit, merged)
            job = await loop.run_in_executor(
                None,
                partial(
                    scheduler.result,
                    job_id,
                    wait_s=self._server.result_timeout_s,
                ),
            )
        except Exception as exc:  # noqa: BLE001 - propagate to every waiter
            for _, future in bucket:
                if not future.done():
                    future.set_exception(exc)
            return
        if job.status != JobState.DONE:
            error = RuntimeError(
                f"micro-batched job {job_id} ended {job.status}: {job.error}"
            )
            for _, future in bucket:
                if not future.done():
                    future.set_exception(error)
            return
        values = dict(zip(merged.pairs, job.pair_values))
        for request, future in bucket:
            if not future.done():
                future.set_result(
                    (
                        np.array([values[pair] for pair in request.pairs]),
                        job_id,
                        len(bucket),
                    )
                )


class AsyncExtractionServer:
    """Owns one scheduler and one asyncio HTTP server on top of it.

    ``port=0`` binds an ephemeral port (read :attr:`url` back after
    :meth:`start`); use as a context manager or call :meth:`close`.  The
    event loop runs on one background thread; scheduler work runs in the
    default executor so the loop never blocks on a solve, a journal fsync
    or a long poll.

    Parameters beyond the scheduler's: ``pair_window_s`` /
    ``pair_max_batch`` tune the ``/v1/pairs`` micro-batcher, and
    ``result_timeout_s`` bounds server-side waits.

    ``auth_token`` turns on bearer-token auth: every request must carry
    ``Authorization: Bearer <token>`` or is answered 401 with the standard
    error envelope (code ``unauthorized``) — except the ``/v1/healthz``
    probe, which stays open so liveness checks need no credentials.  The
    cluster's leader→worker RPCs reuse the same token.

    Extra endpoints (the cluster's register/heartbeat/solve RPCs) hang off
    :meth:`add_json_route` rather than subclass surgery on the dispatcher.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        scheduler: Scheduler | None = None,
        pair_window_s: float = 0.02,
        pair_max_batch: int = 64,
        result_timeout_s: float = 300.0,
        auth_token: str | None = None,
        **scheduler_kwargs,
    ) -> None:
        self.scheduler = scheduler if scheduler is not None else Scheduler(**scheduler_kwargs)
        self._owns_scheduler = scheduler is None
        self._requested = (host, int(port))
        self.pair_window_s = float(pair_window_s)
        self.pair_max_batch = int(pair_max_batch)
        self.result_timeout_s = float(result_timeout_s)
        self.auth_token = auth_token
        #: ``(method, path) -> async handler(request, writer)`` consulted
        #: after auth but before the built-in routes; see add_json_route
        self._extra_routes: dict = {}
        self._host: str | None = None
        self._port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._batcher: _PairBatcher | None = None

    # -------------------------------------------------------------- lifecycle
    @property
    def host(self) -> str:
        return self._host if self._host is not None else self._requested[0]

    @property
    def port(self) -> int:
        return self._port if self._port is not None else self._requested[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AsyncExtractionServer":
        """Serve on a background event-loop thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run_loop, name="repro-service-aio", daemon=True
            )
            self._thread.start()
            if not self._started.wait(timeout=30.0):
                raise RuntimeError("async server failed to start within 30s")
            if self._startup_error is not None:
                self._thread.join(timeout=5.0)
                self._thread = None
                raise RuntimeError(
                    f"async server failed to bind: {self._startup_error}"
                )
        return self

    def _run_loop(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._batcher = _PairBatcher(self, self.pair_window_s, self.pair_max_batch)
        try:
            server = await asyncio.start_server(
                self._handle_connection, self._requested[0], self._requested[1]
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            return
        sockname = server.sockets[0].getsockname()
        self._host, self._port = sockname[0], sockname[1]
        self._started.set()
        async with server:
            await self._stop_event.wait()

    def close(self) -> None:
        """Stop serving; also shuts the scheduler down when owned."""
        thread, self._thread = self._thread, None
        if thread is not None and thread.is_alive():
            loop, stop_event = self._loop, self._stop_event
            if loop is not None and stop_event is not None and not loop.is_closed():
                try:
                    loop.call_soon_threadsafe(stop_event.set)
                except RuntimeError:  # pragma: no cover - loop already gone
                    pass
            thread.join(timeout=10.0)
        if self._owns_scheduler:
            self.scheduler.close()

    def __enter__(self) -> "AsyncExtractionServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------- http
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is not None:
                await self._dispatch(request, writer)
        except (ConnectionError, asyncio.TimeoutError):
            pass  # the peer went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """One parsed request: ``(method, path, query, headers, body)``."""
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=30.0
            )
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length") or 0)
        body = await reader.readexactly(length) if length else b""
        url = urlparse(target)
        return method.upper(), url.path, parse_qs(url.query), headers, body

    @staticmethod
    def _response_head(status: int, headers: dict[str, str]) -> bytes:
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, '')}".rstrip()]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        doc: dict,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(doc).encode()
        all_headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            "Connection": "close",
            **(headers or {}),
        }
        writer.write(self._response_head(status, all_headers) + body)
        await writer.drain()

    async def _send_error(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        code: str,
        message: str,
        retry_after: float | None = None,
        headers: dict[str, str] | None = None,
    ) -> None:
        await self._send_json(
            writer, status, error_envelope(code, message, retry_after), headers
        )

    # ---------------------------------------------------------------- routing
    def add_json_route(self, method: str, path: str, handler) -> None:
        """Register one extra JSON endpoint on this server.

        ``handler(doc)`` receives the parsed JSON body (``{}`` for GETs)
        and returns the transport-agnostic ``(status, payload, headers)``
        route result — the same contract as the :mod:`~repro.service.wire`
        route helpers.  It runs in the executor, so it may block on the
        scheduler.  Registered routes sit behind the bearer-token check
        like every built-in endpoint.
        """
        async def route(request, writer: asyncio.StreamWriter) -> None:
            _method, _path, _query, _headers, body = request
            doc = self._parse_json(body)
            if doc is None:
                await self._send_error(writer, 400, "bad_request", "body is not JSON")
                return
            loop = asyncio.get_running_loop()
            status, payload, extra = await loop.run_in_executor(None, handler, doc)
            await self._send_json(writer, status, payload, headers=extra)

        self._extra_routes[(method.upper(), path)] = route

    def _authorized(self, path: str, headers: dict) -> bool:
        """Bearer-token check; health probes stay open (liveness needs no key)."""
        if self.auth_token is None or path == "/v1/healthz":
            return True
        supplied = headers.get("authorization", "")
        scheme, _, token = supplied.partition(" ")
        return scheme.lower() == "bearer" and hmac.compare_digest(
            token.strip(), self.auth_token
        )

    async def _dispatch(self, request, writer: asyncio.StreamWriter) -> None:
        method, path, query, headers, body = request
        loop = asyncio.get_running_loop()
        scheduler = self.scheduler

        if not self._authorized(path, headers):
            await self._send_error(
                writer, 401, "unauthorized", "missing or invalid bearer token"
            )
            return

        extra_route = self._extra_routes.get((method, path))
        if extra_route is not None:
            await extra_route(request, writer)
            return
        if any(route_path == path for _m, route_path in self._extra_routes):
            await self._method_not_allowed(writer, method, path)
            return

        if path == "/v1/healthz":
            if method != "GET":
                await self._method_not_allowed(writer, method, path)
                return
            health = scheduler.health()
            health.update(
                {
                    "schema_version": SCHEMA_VERSION,
                    "queue_depth": scheduler.queue_depth,
                    "uptime_s": time.monotonic() - scheduler.metrics.started_at,
                }
            )
            await self._send_json(writer, 200 if health["ok"] else 503, health)
            return

        if path == "/v1/stats":
            if method != "GET":
                await self._method_not_allowed(writer, method, path)
                return
            await self._send_json(writer, 200, scheduler.stats())
            return

        if path == "/v1/jobs":
            if method != "POST":
                await self._method_not_allowed(writer, method, path)
                return
            doc = self._parse_json(body)
            if doc is None:
                await self._send_error(writer, 400, "bad_request", "body is not JSON")
                return
            status, payload, extra = await loop.run_in_executor(
                None, v1_submit, scheduler, doc
            )
            await self._send_json(writer, status, payload, headers=extra)
            return

        if path.startswith("/v1/jobs/"):
            job_id = unquote(path[len("/v1/jobs/"):])
            if method == "GET":
                wait_s = self._parse_wait_s(query)
                if wait_s is WAIT_INVALID:
                    await self._send_error(
                        writer, 400, "bad_request", "wait_s must be a number"
                    )
                    return
                status, payload, extra = await loop.run_in_executor(
                    None, v1_snapshot, scheduler, job_id, wait_s
                )
                await self._send_json(writer, status, payload, headers=extra)
                return
            if method == "DELETE":
                status, payload, extra = await loop.run_in_executor(
                    None, v1_cancel, scheduler, job_id
                )
                await self._send_json(writer, status, payload, headers=extra)
                return
            await self._method_not_allowed(writer, method, path)
            return

        if path == "/v1/stream":
            if method != "POST":
                await self._method_not_allowed(writer, method, path)
                return
            doc = self._parse_json(body)
            if doc is None:
                await self._send_error(writer, 400, "bad_request", "body is not JSON")
                return
            await self._handle_stream(doc, writer)
            return

        if path == "/v1/pairs":
            if method != "POST":
                await self._method_not_allowed(writer, method, path)
                return
            doc = self._parse_json(body)
            if doc is None:
                await self._send_error(writer, 400, "bad_request", "body is not JSON")
                return
            await self._handle_pairs(doc, writer)
            return

        await self._send_error(writer, 404, "not_found", f"unknown path {path!r}")

    async def _method_not_allowed(self, writer, method: str, path: str) -> None:
        await self._send_error(
            writer, 405, "method_not_allowed", f"{method} not allowed on {path!r}"
        )

    @staticmethod
    def _parse_json(body: bytes):
        try:
            doc = json.loads(body or b"{}")
        except ValueError:
            return None
        return doc if isinstance(doc, dict) else None

    @staticmethod
    def _parse_wait_s(query: dict):
        raw = (query.get("wait_s") or [None])[0]
        if raw is None:
            return None
        try:
            wait_s = float(raw)
        except ValueError:
            return WAIT_INVALID
        return wait_s if wait_s > 0 else None

    # -------------------------------------------------------------- streaming
    async def _handle_stream(self, doc: dict, writer: asyncio.StreamWriter) -> None:
        """Serve one ``/v1/stream`` request as chunked NDJSON events.

        Per-job watchers are registered atomically with each submit, so no
        column event can slip between submission and subscription; events
        cross from the dispatcher thread onto the loop via
        ``call_soon_threadsafe`` into one queue.  Duplicate column
        announcements (a retried batch re-announces store hits) are
        deduplicated here, per job.
        """
        docs = doc.get("requests")
        if docs is None:
            docs = [doc]  # a bare request document streams as a 1-job stream
        if not isinstance(docs, list) or not docs:
            await self._send_error(
                writer, 400, "bad_request", "requests must be a non-empty list"
            )
            return
        loop = asyncio.get_running_loop()
        metrics = self.scheduler.metrics
        metrics.record_stream_opened()
        writer.write(
            self._response_head(
                200,
                {
                    "Content-Type": "application/x-ndjson",
                    "Transfer-Encoding": "chunked",
                    "Connection": "close",
                },
            )
        )
        await writer.drain()

        async def emit(event: dict, n_columns: int = 0) -> None:
            data = (json.dumps(event) + "\n").encode()
            writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
            await writer.drain()
            metrics.record_stream_event(n_columns)

        queue: asyncio.Queue = asyncio.Queue()
        active = 0
        for index, request_doc in enumerate(docs):
            try:
                request = request_from_wire(request_doc)
            except WireFormatError as exc:
                await emit(
                    {
                        "event": "error",
                        "index": index,
                        "error": error_envelope("bad_request", str(exc))["error"],
                    }
                )
                continue

            def watcher(event: dict, _index: int = index) -> None:
                loop.call_soon_threadsafe(queue.put_nowait, (_index, event))

            try:
                job_id = await loop.run_in_executor(
                    None, partial(self.scheduler.submit, request, watcher=watcher)
                )
            except QueueSaturatedError as exc:
                await emit(
                    {
                        "event": "error",
                        "index": index,
                        "error": error_envelope(
                            "queue_saturated", str(exc), retry_after=exc.retry_after_s
                        )["error"],
                    }
                )
                continue
            except RuntimeError as exc:
                await emit(
                    {
                        "event": "error",
                        "index": index,
                        "error": error_envelope("unavailable", str(exc))["error"],
                    }
                )
                continue
            active += 1
            await emit(
                {
                    "event": "submitted",
                    "index": index,
                    "job_id": job_id,
                    "status": JobState.PENDING,
                }
            )

        sent: dict[str, set] = {}
        while active:
            index, event = await queue.get()
            if event["kind"] == "columns":
                seen = sent.setdefault(event["job_id"], set())
                fresh = [c for c in event["columns"] if c not in seen]
                if not fresh:
                    continue
                seen.update(fresh)
                block = np.column_stack([event["arrays"][c] for c in fresh])
                await emit(
                    {
                        "event": "columns",
                        "index": index,
                        "job_id": event["job_id"],
                        "columns": fresh,
                        "block": encode_array(block),
                        "source": event["source"],
                    },
                    n_columns=len(fresh),
                )
            else:  # terminal
                active -= 1
                try:
                    snapshot = await loop.run_in_executor(
                        None, self.scheduler.snapshot, event["job_id"]
                    )
                except (JobExpiredError, KeyError):  # pragma: no cover - retention race
                    snapshot = None
                await emit(
                    {
                        "event": "done",
                        "index": index,
                        "job_id": event["job_id"],
                        "status": event["status"],
                        "snapshot": snapshot_to_wire(snapshot) if snapshot else None,
                    }
                )
        await emit({"event": "end", "schema_version": SCHEMA_VERSION})
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # ----------------------------------------------------------- micro-batch
    async def _handle_pairs(self, doc: dict, writer: asyncio.StreamWriter) -> None:
        try:
            pairs = doc.get("pairs")
            if not pairs:
                raise WireFormatError("pairs must be a non-empty list of [row, col]")
            tolerance = doc.get("tolerance")
            timeout_s = doc.get("timeout_s")
            request = JobRequest(
                spec=spec_from_wire(doc.get("spec")),
                pairs=tuple((int(i), int(j)) for i, j in pairs),
                tolerance=float(tolerance) if tolerance is not None else None,
                priority=int(doc.get("priority") or 0),
                timeout_s=float(timeout_s) if timeout_s is not None else None,
            )
        except WireFormatError as exc:
            await self._send_error(writer, 400, "bad_request", str(exc))
            return
        except (TypeError, ValueError) as exc:
            await self._send_error(
                writer, 400, "bad_request", f"malformed pairs document: {exc}"
            )
            return
        try:
            values, job_id, batched = await self._batcher.query(request)
        except QueueSaturatedError as exc:
            await self._send_error(
                writer,
                429,
                "queue_saturated",
                str(exc),
                retry_after=exc.retry_after_s,
                headers={"Retry-After": str(max(1, round(exc.retry_after_s)))},
            )
            return
        except RuntimeError as exc:
            await self._send_error(writer, 503, "unavailable", str(exc))
            return
        await self._send_json(
            writer,
            200,
            {
                "schema_version": SCHEMA_VERSION,
                "job_id": job_id,
                "pairs": [list(pair) for pair in request.pairs],
                "values": encode_array(values),
                "batched_queries": batched,
            },
        )


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: ``python -m repro.service [--host H] [--port P] ...``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run the substrate-extraction service (async /v1 front end).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8752, help="bind port (0=ephemeral)")
    parser.add_argument(
        "--workers", type=int, default=None, help="extraction worker processes per engine"
    )
    parser.add_argument(
        "--max-solvers", type=int, default=4, help="warm engines kept across substrates"
    )
    parser.add_argument(
        "--store-bytes", type=int, default=None, help="result-store budget in bytes"
    )
    parser.add_argument(
        "--coalesce-window",
        type=float,
        default=0.0,
        help="seconds to linger before draining the queue (batches near-simultaneous jobs)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        help=(
            "durable state directory (result corpus, factor artifacts, job "
            "journal); omit for the in-memory default"
        ),
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help=(
            "admission-control bound on the pending queue; when full, new "
            "submissions shed the lowest-priority queued job or get HTTP 429 "
            "(omit for an unbounded queue)"
        ),
    )
    parser.add_argument(
        "--pair-window",
        type=float,
        default=0.02,
        help="seconds /v1/pairs holds small pair queries for micro-batching",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        help=(
            "bearer token required on every /v1 request except the health "
            "probe (env: REPRO_AUTH_TOKEN); omit both for an open server"
        ),
    )
    parser.add_argument(
        "--faults",
        default=None,
        help=(
            "fault-injection plan: JSON text or @path to a JSON file "
            "(exported as REPRO_FAULTS so worker processes inherit it); "
            "chaos testing only"
        ),
    )
    args = parser.parse_args(argv)
    auth_token = args.auth_token or os.environ.get("REPRO_AUTH_TOKEN") or None

    from .result_store import ResultStore

    if args.faults:
        from .. import faults

        # export via the environment so worker processes inherit the plan,
        # then parse eagerly — a typo'd plan fails the CLI, not a worker
        os.environ[faults.ENV_VAR] = args.faults
        faults.reload_env_plan()

    store = ResultStore(args.store_bytes) if args.store_bytes is not None else None
    server = AsyncExtractionServer(
        host=args.host,
        port=args.port,
        pair_window_s=args.pair_window,
        auth_token=auth_token,
        n_workers=args.workers,
        max_solvers=args.max_solvers,
        store=store,
        coalesce_window_s=args.coalesce_window,
        persistence=args.state_dir,
        max_queue_depth=args.max_queue_depth,
    )
    server.start()
    print(f"extraction service listening on {server.url}/v1/ (Ctrl-C to stop)")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
