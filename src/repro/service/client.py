"""Blocking Python client of the extraction service's ``/v1`` front door.

:class:`ServiceClient` speaks the schema-first JSON wire of
:mod:`~repro.service.wire` — no pickle leaves the process — to an
:class:`~repro.service.aserver.AsyncExtractionServer`.  Every HTTP error
answer goes through one decoder,
:func:`~repro.service.wire.raise_for_http_error`, and comes back as the
**typed exception** the wire module's error table names for its envelope
code:

* 404 ``unknown_job``   → :class:`~repro.service.wire.UnknownJobError`
  (a ``KeyError``, like :meth:`Scheduler.result`)
* 410 ``job_expired``   → :class:`~repro.service.jobs.JobExpiredError`
* 429 ``queue_saturated`` → :class:`~repro.service.jobs.QueueSaturatedError`
  with the server's ``retry_after_s`` hint
* 400 ``bad_request``   → :class:`~repro.service.wire.BadRequestError`
* anything else         → a :class:`~repro.service.wire.ServiceError`
  subclass keyed on the envelope code (500 ``internal`` is a plain one)

so callers handle local and remote failure modes with one ``except``
clause.  The client is a context manager (``with ServiceClient(url) as
client: ...``); construction is cheap and connections are per-request, so
``close()`` exists for lifecycle symmetry and future pooling.

Array fields (``result``, ``pair_values``, streamed column blocks) are
decoded back to float64 ndarrays — bit-exact with what the server solved.
"""

from __future__ import annotations

import json
import time
from typing import Iterable, Iterator
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import numpy as np

from .jobs import JobRequest, JobState, QueueSaturatedError
from .wire import (
    SCHEMA_VERSION,
    ServiceUnavailableError,
    decode_array,
    raise_for_http_error,
    request_to_wire,
    spec_to_wire,
)

__all__ = ["ServiceClient"]

#: wire-array fields of a job snapshot the client decodes back to ndarrays
_SNAPSHOT_ARRAYS = ("result", "pair_values")


def _decode_snapshot(snapshot: dict) -> dict:
    for key in _SNAPSHOT_ARRAYS:
        value = snapshot.get(key)
        if isinstance(value, dict):
            snapshot[key] = decode_array(value)
    return snapshot


class ServiceClient:
    """Blocking client of one extraction service (see module docstring).

    ``auth_token`` sends ``Authorization: Bearer <token>`` on every request
    (required against a server started with ``--auth-token``).

    ``retries`` opts into bounded client-side backoff: a 429
    (:class:`~repro.service.jobs.QueueSaturatedError`) or 503
    (:class:`~repro.service.wire.ServiceUnavailableError`) answer is
    retried up to that many times, sleeping the server's ``Retry-After``
    hint (capped at ``retry_cap_s``) between attempts, instead of raising
    immediately.  The default ``retries=0`` keeps the raise-immediately
    behaviour.  Retries cover the request/response methods only —
    :meth:`stream` opens a long-lived connection and is never retried
    (replaying it could resubmit already-accepted jobs).
    """

    def __init__(
        self,
        url: str,
        timeout_s: float = 30.0,
        auth_token: str | None = None,
        retries: int = 0,
        retry_cap_s: float = 30.0,
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout_s = float(timeout_s)
        self.auth_token = auth_token
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.retries = int(retries)
        self.retry_cap_s = float(retry_cap_s)
        self._closed = False

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the client (idempotent).

        Connections are currently per-request, so this only marks the
        client closed — but callers should treat the lifecycle as real:
        a pooled transport can then land without breaking anyone.
        """
        self._closed = True

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ http
    def _headers(self, has_body: bool) -> dict[str, str]:
        headers: dict[str, str] = {}
        if has_body:
            headers["Content-Type"] = "application/json"
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        return headers

    def _request_once(
        self,
        method: str,
        path: str,
        doc: dict | None = None,
        timeout_s: float | None = None,
    ) -> dict:
        if self._closed:
            raise RuntimeError("client is closed")
        body = json.dumps(doc).encode() if doc is not None else None
        request = Request(
            self.url + path,
            data=body,
            method=method,
            headers=self._headers(body is not None),
        )
        timeout = timeout_s if timeout_s is not None else self.timeout_s
        try:
            with urlopen(request, timeout=timeout) as response:
                return json.loads(response.read())
        except HTTPError as exc:
            raise_for_http_error(exc)

    def _request(
        self,
        method: str,
        path: str,
        doc: dict | None = None,
        timeout_s: float | None = None,
    ) -> dict:
        """One request, honoring ``Retry-After`` on 429/503 up to ``retries``.

        Only admission-control refusals retry — the server said "come back
        later", and both paths are idempotent to repeat because the refused
        attempt changed no server state.  Everything else raises as before.
        """
        for attempt in range(self.retries + 1):
            try:
                return self._request_once(method, path, doc, timeout_s)
            except (QueueSaturatedError, ServiceUnavailableError) as exc:
                if attempt >= self.retries:
                    raise
                hint = getattr(exc, "retry_after_s", None)
                if hint is None:
                    hint = getattr(exc, "retry_after", None)
                time.sleep(min(float(hint or 1.0), self.retry_cap_s))
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------- api
    def submit(self, request: JobRequest) -> str:
        """Ship one request as a schema document; returns the job id.

        A 429 envelope (admission control refused the submission) is
        raised as :class:`~repro.service.jobs.QueueSaturatedError`
        carrying the server's retry hint in ``retry_after_s``.
        """
        return self._request("POST", "/v1/jobs", request_to_wire(request))["job_id"]

    def result(self, job_id: str, wait_s: float = 0.0) -> dict:
        """One job snapshot, optionally long-polling up to ``wait_s``.

        ``result`` / ``pair_values`` come back as float64 ndarrays (or
        ``None`` until the job is terminal).  Raises
        :class:`~repro.service.wire.UnknownJobError` (404) or
        :class:`~repro.service.jobs.JobExpiredError` (410).
        """
        path = f"/v1/jobs/{job_id}"
        if wait_s > 0:
            path += f"?wait_s={wait_s:g}"
        snapshot = self._request("GET", path, timeout_s=self.timeout_s + max(wait_s, 0.0))
        return _decode_snapshot(snapshot)

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; True when it was still cancellable."""
        return bool(self._request("DELETE", f"/v1/jobs/{job_id}")["cancelled"])

    def wait(self, job_id: str, timeout_s: float = 60.0) -> dict:
        """Block until the job is terminal; raises ``TimeoutError`` otherwise."""
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"job {job_id} not terminal after {timeout_s:g}s")
            snapshot = self.result(job_id, wait_s=min(remaining, 5.0))
            if snapshot["status"] in JobState.TERMINAL:
                return snapshot

    def extract(self, request: JobRequest, timeout_s: float = 60.0):
        """Submit + wait + unpack: solved columns as an ndarray (or pair values).

        Returns the ``(n_contacts, k)`` column block for column/dense
        requests, the pair-value vector for pure pair requests, and the
        ``(column block, pair values)`` tuple when the request asked for
        both.  Raises ``RuntimeError`` on any non-``done`` terminal status.
        """
        snapshot = self.wait(self.submit(request), timeout_s=timeout_s)
        if snapshot["status"] != JobState.DONE:
            raise RuntimeError(
                f"job {snapshot['job_id']} ended {snapshot['status']}: "
                f"{snapshot.get('error')}"
            )
        result = snapshot["result"]
        pairs = snapshot["pair_values"]
        if result is not None and pairs is not None:
            return result, pairs
        return result if result is not None else pairs

    # ------------------------------------------------------------- streaming
    def stream(
        self,
        requests: "JobRequest | Iterable[JobRequest]",
        timeout_s: float | None = None,
    ) -> Iterator[dict]:
        """Submit requests and yield progress events as the service solves.

        Yields the ``/v1/stream`` NDJSON events in arrival order:
        ``{"event": "submitted", "index", "job_id", "status"}``, then
        ``{"event": "columns", "index", "job_id", "columns", "block",
        "source"}`` with ``block`` decoded to an ``(n_contacts,
        len(columns))`` ndarray **as each coalesced group lands** (before
        the job completes), ``{"event": "done", ...,  "snapshot"}`` per
        job (snapshot arrays decoded), ``{"event": "error", "index",
        "error"}`` for per-request failures, and a final
        ``{"event": "end"}``.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        if isinstance(requests, JobRequest):
            requests = [requests]
        docs = [request_to_wire(r) for r in requests]
        body = json.dumps({"schema_version": SCHEMA_VERSION, "requests": docs}).encode()
        http_request = Request(
            self.url + "/v1/stream",
            data=body,
            method="POST",
            headers=self._headers(True),
        )
        try:
            response = urlopen(
                http_request, timeout=timeout_s if timeout_s is not None else self.timeout_s
            )
        except HTTPError as exc:
            raise_for_http_error(exc)

        def events() -> Iterator[dict]:
            with response:
                for raw in response:
                    line = raw.strip()
                    if not line:
                        continue
                    event = json.loads(line)
                    if isinstance(event.get("block"), dict):
                        event["block"] = decode_array(event["block"])
                    if isinstance(event.get("snapshot"), dict):
                        _decode_snapshot(event["snapshot"])
                    yield event

        return events()

    def pairs(
        self,
        spec,
        pairs: Iterable[tuple[int, int]],
        tolerance: float | None = None,
        priority: int = 0,
        timeout_s: float | None = None,
    ) -> np.ndarray:
        """Fetch individual conductance entries through ``/v1/pairs``.

        The query is one job on the server; concurrent queries over the
        same substrate coalesce in its scheduler.  The returned vector
        aligns with ``pairs`` order.  Blocks until the values are solved.
        """
        doc = {
            "schema_version": SCHEMA_VERSION,
            "spec": spec_to_wire(spec),
            "pairs": [list(pair) for pair in pairs],
            "tolerance": tolerance,
            "priority": priority,
        }
        answer = self._request(
            "POST", "/v1/pairs", doc, timeout_s=timeout_s if timeout_s else self.timeout_s
        )
        return decode_array(answer["values"])

    # ---------------------------------------------------------------- status
    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def healthz(self) -> dict:
        """The health document; raises a typed error when the service is down.

        A 503 (``ok: false``) surfaces as
        :class:`~repro.service.wire.ServiceError` with ``status == 503``.
        """
        return self._request("GET", "/v1/healthz")
