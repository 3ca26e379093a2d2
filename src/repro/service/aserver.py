"""Asyncio front door of the extraction service (the ``/v1/`` server).

One event loop serves every connection — no thread per request — and
bridges to the existing thread-based
:class:`~repro.service.scheduler.Scheduler` through executor calls (for
submits and snapshots), each job's ``done`` future (awaited on the loop
through ``asyncio.wrap_future``, so a waiting client holds no thread) and
:meth:`~repro.service.scheduler.Scheduler.submit`'s watcher hook (for
streamed columns, marshalled onto the loop with
``call_soon_threadsafe``).  This is the service's only HTTP front end, and
everything on its wire is the declarative JSON schema of
:mod:`~repro.service.wire` — no pickle on any route.

Every route is one entry of one ``(method, path) -> handler`` table, filled
by :meth:`AsyncExtractionServer.add_json_route` (the cluster's leader and
worker add their RPCs the same way):

========  ======================  =========================================
method    path                    body / behaviour
========  ======================  =========================================
POST      /v1/jobs                wire request document → ``{"job_id",
                                  "status", "schema_version"}`` (202)
GET       /v1/jobs/<id>           ``?wait_s=`` (a long poll, awaited on
                                  the loop) → wire job snapshot
DELETE    /v1/jobs/<id>           cancel a queued job
POST      /v1/stream              ``{"requests": [...]}`` → chunked NDJSON:
                                  ``submitted`` / ``columns`` / ``done`` /
                                  ``error`` / ``end`` events; columns are
                                  pushed **as their coalesced group's solve
                                  lands**, before the owning job completes
POST      /v1/pairs               one pair query, submitted and waited for;
                                  concurrent queries over one fingerprint
                                  coalesce in the scheduler
GET       /v1/stats               metrics snapshot (incl. ``frontdoor``)
GET       /v1/healthz             liveness (503 when stuck)
========  ======================  =========================================

Failures: handlers raise, and never build an answer for one.  The
dispatcher turns any exception — from reading the request, the bearer-token
check, the route lookup (404 ``not_found``, 405 ``method_not_allowed``),
the JSON body or the handler — into the one error envelope
``{"error": {"code", "message", "retry_after"}}`` through the error table of
:func:`~repro.service.wire.error_answer`, so every request gets an answer;
an unforeseen exception is a 500 ``internal``.

The HTTP layer itself is a deliberately small HTTP/1.1 implementation over
``asyncio.start_server`` (stdlib only; one request per connection,
``Connection: close``); responses with unbounded bodies use chunked
transfer encoding, which is what lets ``/v1/stream`` flush one NDJSON
event at a time.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hmac
import inspect
import json
import os
import signal
import sys
import threading
import time
from typing import Any, NamedTuple
from urllib.parse import parse_qs, unquote, urlparse

import numpy as np

from .jobs import SCHEMA_VERSION, Job, JobExpiredError, JobRequest, JobState
from .scheduler import Scheduler
from .wire import (
    MethodNotAllowedError,
    NotFoundError,
    ServiceUnavailableError,
    UnauthorizedError,
    WireFormatError,
    encode_array,
    error_answer,
    request_from_wire,
    snapshot_to_wire,
)

__all__ = ["AsyncExtractionServer", "RouteRequest", "main"]

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

#: how long ``/v1/pairs`` waits for its job before answering 503
_PAIR_WAIT_S = 300.0


async def _until_done(job: Job, timeout_s: float) -> None:
    """Wait on the loop, holding no thread, until ``job`` ends or the time is up."""
    with contextlib.suppress(asyncio.TimeoutError):
        await asyncio.wait_for(asyncio.wrap_future(job.done), timeout_s)


class RouteRequest(NamedTuple):
    """What a route handler receives (see ``add_json_route``)."""

    #: the parsed JSON object of a POST body; ``{}`` for other methods
    doc: dict
    #: the parsed query string (``parse_qs``)
    query: dict
    #: the unquoted rest of the path under a prefix entry, else ``""``
    tail: str
    #: the connection, for a coroutine handler that writes its own response
    writer: Any


class AsyncExtractionServer:
    """Owns one scheduler and one asyncio HTTP server on top of it.

    ``port=0`` binds an ephemeral port (read :attr:`url` back after
    :meth:`start`); use as a context manager or call :meth:`close`.  The
    event loop runs on one background thread; scheduler work runs in the
    default executor so the loop never blocks on a solve or a journal
    fsync; a long poll waits on the loop itself.  Keyword arguments beyond the ones below build the
    scheduler when none is given.

    ``auth_token`` turns on bearer-token auth: every request must carry
    ``Authorization: Bearer <token>`` or is answered 401 with the standard
    error envelope (code ``unauthorized``) — except the ``/v1/healthz``
    probe, which stays open so liveness checks need no credentials.  The
    cluster's leader→worker RPCs reuse the same token.

    Every route, built-in or added (the cluster's heartbeat/hosts/solve
    RPCs), is registered through :meth:`add_json_route`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        scheduler: Scheduler | None = None,
        auth_token: str | None = None,
        **scheduler_kwargs,
    ) -> None:
        self.scheduler = scheduler if scheduler is not None else Scheduler(**scheduler_kwargs)
        self._owns_scheduler = scheduler is None
        self._requested = (host, int(port))
        self.auth_token = auth_token
        #: the route table: ``(method, path) -> handler``; a path ending in
        #: ``/`` is a prefix entry
        self._routes: dict = {}
        self._host: str | None = None
        self._port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        for method, path, handler in (
            ("GET", "/v1/healthz", self._healthz),
            ("GET", "/v1/stats", lambda request: (200, self.scheduler.stats())),
            ("POST", "/v1/jobs", self._submit),
            ("GET", "/v1/jobs/", self._snapshot),
            ("DELETE", "/v1/jobs/", self._cancel),
            ("POST", "/v1/pairs", self._pairs),
            ("POST", "/v1/stream", self._stream),
        ):
            self.add_json_route(method, path, handler)

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
            try:
                request = await self._read_request(reader)
                answer = await self._dispatch(*request, writer) if request else None
            except (ConnectionError, asyncio.TimeoutError):
                raise
            except Exception as exc:  # noqa: BLE001 - every request gets an answer
                answer = error_answer(exc)
                if answer[0] == 500:
                    # unforeseen: the loop's handler logs the traceback
                    asyncio.get_running_loop().call_exception_handler(
                        {"message": "route raised an unforeseen exception", "exception": exc}
                    )
            if answer is not None:
                await self._send_json(writer, *answer)
        except (ConnectionError, asyncio.TimeoutError):
            pass  # the peer went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """One request's ``(method, target, headers, body)``; None when the
        peer closed before sending a whole head."""
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=30.0
            )
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            raise WireFormatError("request head too large") from None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise WireFormatError("malformed request line") from None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            raise WireFormatError("Content-Length must be a non-negative integer")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            raise WireFormatError("body shorter than its Content-Length") from None
        return method.upper(), target, headers, body

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

    # ---------------------------------------------------------------- routing
    def add_json_route(self, method: str, path: str, handler) -> None:
        """Register one route: the one way an entry enters the route table.

        ``handler(request)`` receives a :class:`RouteRequest` and returns
        ``(status, JSON document)``; a ``path`` ending in ``/`` is a prefix
        entry, whose handler reads the rest of the path from
        ``request.tail``.  Handlers raise to fail — the dispatcher answers
        the exception with the error envelope.  A plain function runs in
        the executor, so it may block on the scheduler; a coroutine
        function runs on the event loop and may write its own response to
        ``request.writer``, returning ``None`` (``/v1/stream`` does).
        Every route except ``/v1/healthz`` sits behind the bearer-token
        check.  Register routes before :meth:`start`.
        """
        self._routes[(method.upper(), path)] = handler

    def _authorized(self, path: str, headers: dict) -> bool:
        """Bearer-token check; health probes stay open (liveness needs no key)."""
        if self.auth_token is None or path == "/v1/healthz":
            return True
        scheme, _, token = headers.get("authorization", "").partition(" ")
        # compare bytes: compare_digest refuses a str holding non-ASCII
        # characters, and the header was decoded as latin-1
        return scheme.lower() == "bearer" and hmac.compare_digest(
            token.strip().encode("latin-1"), self.auth_token.encode()
        )

    async def _dispatch(
        self, method: str, target: str, headers: dict, body: bytes, writer
    ):
        """Check the token, find the route, parse a POST body, run the handler."""
        url = urlparse(target)
        path = url.path
        if not self._authorized(path, headers):
            raise UnauthorizedError("missing or invalid bearer token")
        paths = {route_path for _method, route_path in self._routes}
        base = path
        if path not in paths:
            base = next((p for p in paths if p.endswith("/") and path.startswith(p)), path)
        handler = self._routes.get((method, base))
        if handler is None:
            if base in paths:
                raise MethodNotAllowedError(f"{method} not allowed on {path!r}")
            raise NotFoundError(f"unknown path {path!r}")
        doc: Any = {}
        if method == "POST":
            try:
                doc = json.loads(body or b"{}")
            except ValueError:
                doc = None
            if not isinstance(doc, dict):
                raise WireFormatError("body is not a JSON object")
        request = RouteRequest(doc, parse_qs(url.query), unquote(path[len(base):]), writer)
        if inspect.iscoroutinefunction(handler):
            return await handler(request)
        return await asyncio.get_running_loop().run_in_executor(None, handler, request)

    # ----------------------------------------------------------------- routes
    async def _healthz(self, request: RouteRequest) -> tuple[int, dict]:
        """``GET /v1/healthz``: the health document, 503 when not ok.

        A coroutine so the probe runs on the loop and answers even while
        every executor thread is busy.
        """
        scheduler = self.scheduler
        health = scheduler.health()
        health.update(
            {
                "schema_version": SCHEMA_VERSION,
                "queue_depth": scheduler.queue_depth,
                "uptime_s": time.monotonic() - scheduler.metrics.started_at,
            }
        )
        return (200 if health["ok"] else 503), health

    def _submit(self, request: RouteRequest) -> tuple[int, dict]:
        """``POST /v1/jobs``: decode, submit, answer 202 with the job id."""
        job_id = self.scheduler.submit(request_from_wire(request.doc))
        return 202, {
            "schema_version": SCHEMA_VERSION,
            "job_id": job_id,
            "status": JobState.PENDING,
        }

    async def _snapshot(self, request: RouteRequest) -> tuple[int, dict]:
        """``GET /v1/jobs/<id>?wait_s=``: one wire-encoded job snapshot.

        The long poll awaits the job's ``done`` future on the loop, so
        waiting clients hold no executor thread; only the snapshot and its
        encoding run in the executor.
        """
        raw = (request.query.get("wait_s") or [None])[0]
        try:
            wait_s = float(raw) if raw is not None else 0.0
        except ValueError:
            raise WireFormatError("wait_s must be a number") from None
        scheduler = self.scheduler
        job = scheduler.result(request.tail)  # 404 / 410 before any wait
        if wait_s > 0:
            await _until_done(job, wait_s)
        return 200, await asyncio.get_running_loop().run_in_executor(
            None, lambda: snapshot_to_wire(scheduler.snapshot(request.tail))
        )

    def _cancel(self, request: RouteRequest) -> tuple[int, dict]:
        """``DELETE /v1/jobs/<id>``: cancel a queued job (no-op when started)."""
        cancelled = self.scheduler.cancel(request.tail)
        return 200, {
            "schema_version": SCHEMA_VERSION,
            "job_id": request.tail,
            "cancelled": cancelled,
        }

    async def _pairs(self, request: RouteRequest) -> tuple[int, dict]:
        """``POST /v1/pairs``: submit one pair query, wait for it, answer.

        Concurrent queries over one fingerprint are separate jobs, and the
        scheduler coalesces them into one batch; ``batched_queries`` stays
        in the answer and is always 1.  The wait holds no executor thread:
        it awaits the job's ``done`` future on the loop.
        """
        query = request_from_wire(request.doc)
        if query.pairs is None or query.columns is not None:
            raise WireFormatError("a pairs query needs a non-empty pairs list and no columns")
        self.scheduler.metrics.record_pair_query()
        job = await self._submit_job(query)
        await _until_done(job, _PAIR_WAIT_S)
        if job.status != JobState.DONE:
            raise ServiceUnavailableError(
                f"pair job {job.job_id} not done ({job.status}): {job.error}"
            )
        return 200, {
            "schema_version": SCHEMA_VERSION,
            "job_id": job.job_id,
            "pairs": [list(pair) for pair in query.pairs],
            "values": encode_array(job.pair_values),
            "batched_queries": 1,
        }

    async def _submit_job(self, query: JobRequest, watcher=None) -> Job:
        """Submit in the executor; returns the live job record at once, since
        finished-job retention may drop the id while a handler waits, never
        the record."""
        scheduler = self.scheduler
        return await asyncio.get_running_loop().run_in_executor(
            None, lambda: scheduler.result(scheduler.submit(query, watcher=watcher))
        )

    async def _stream(self, request: RouteRequest) -> None:
        """``POST /v1/stream``: serve the request's jobs as chunked NDJSON events.

        The one handler that writes its own response.  A bad ``requests``
        list is raised before anything is written; after the head, each
        request's failure becomes an ``error`` event carrying the envelope
        body :func:`~repro.service.wire.error_answer` gives it.  Per-job
        watchers are registered atomically with each submit, so no column
        event can slip between submission and subscription; events cross
        from the dispatcher thread onto the loop via
        ``call_soon_threadsafe`` into one queue.  Duplicate column
        announcements (a retried batch re-announces store hits) are
        deduplicated here, per job.  Each job's end comes from its ``done``
        future, queued behind the column events the dispatcher sent before
        finalizing it, so every ``columns`` event of a job precedes its
        ``done``.
        """
        docs = request.doc.get("requests")
        if docs is None:
            docs = [request.doc]  # a bare request document streams as a 1-job stream
        if not isinstance(docs, list) or not docs:
            raise WireFormatError("requests must be a non-empty list")
        writer = request.writer
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

            def forward(event: dict, _index: int = index) -> None:
                loop.call_soon_threadsafe(queue.put_nowait, (_index, event))

            try:
                job = await self._submit_job(request_from_wire(request_doc), forward)
            except Exception as exc:  # noqa: BLE001 - reported as this request's event
                _status, envelope, _headers = error_answer(exc)
                await emit({"event": "error", "index": index, "error": envelope["error"]})
                continue
            active += 1
            await emit(
                {
                    "event": "submitted",
                    "index": index,
                    "job_id": job.job_id,
                    "status": JobState.PENDING,
                }
            )
            # the loop-side copy of the future resolves through
            # call_soon_threadsafe, after the column events already queued
            asyncio.wrap_future(job.done).add_done_callback(
                lambda done, _index=index, _job_id=job.job_id: queue.put_nowait(
                    (_index, {"kind": "done", "job_id": _job_id, "status": done.result()})
                )
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
            else:  # the job's done future resolved
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


def serve_until_stopped(message: str) -> None:
    """Print ``message``, then sleep until Ctrl-C or SIGTERM.

    SIGTERM raises ``SystemExit(0)``, so ``kill <pid>`` unwinds through the
    caller's ``finally`` (its ``close()``) and exits 0, as Ctrl-C does.
    SIGINT keeps the disposition the process inherited: a background job
    of a non-interactive shell ignores it, and that is the shell's choice.
    """
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    print(message, flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: ``python -m repro.service [--host H] [--port P] ...``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run the substrate-extraction service (async /v1 front end).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8752, help="bind port (0=ephemeral)")
    parser.add_argument(
        "--max-solvers", type=int, default=4, help="warm engines kept across substrates"
    )
    parser.add_argument(
        "--store-bytes", type=int, default=None, help="result-store budget in bytes"
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
            "fault-injection plan: JSON text or @path to a JSON file; "
            "chaos testing only"
        ),
    )
    args = parser.parse_args(argv)
    auth_token = args.auth_token or os.environ.get("REPRO_AUTH_TOKEN") or None

    from .result_store import ResultStore

    if args.faults:
        from .. import faults

        # the environment variable is the one reader of @path plans; parse
        # eagerly so a typo'd plan fails the CLI, not the first hook
        os.environ[faults.ENV_VAR] = args.faults
        faults.reload_env_plan()

    store = ResultStore(args.store_bytes) if args.store_bytes is not None else None
    server = AsyncExtractionServer(
        host=args.host,
        port=args.port,
        auth_token=auth_token,
        max_solvers=args.max_solvers,
        store=store,
        persistence=args.state_dir,
        max_queue_depth=args.max_queue_depth,
    )
    server.start()
    try:
        serve_until_stopped(f"extraction service listening on {server.url}/v1/ (Ctrl-C to stop)")
    finally:
        server.close()
