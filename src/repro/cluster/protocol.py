"""Wire documents and RPC plumbing of the extraction cluster.

Everything that crosses a host boundary in the cluster is a JSON document
built from the primitives of :mod:`repro.service.wire` — tagged tuples,
base64 float64 arrays, the single error envelope — so the cluster wire
inherits the ``/v1`` protocol's guarantees: no pickle, fingerprint-exact
:class:`~repro.substrate.parallel.SolverSpec` round trips, and typed
exceptions on the client side.  Two documents are defined here:

============  ==============================================================
document      shape
============  ==============================================================
heartbeat     ``{"schema_version", "worker_id", "url", "draining",
              "queue_depth"}`` — a worker's only membership message: it
              admits, renews, moves or re-admits the host, and carries the
              one load figure placement reads
completion    ``{"schema_version", "worker_id", "job_id", "columns",
              "block": <wire ndarray>, "attributed_solves"}`` — one solved
              column block coming back from a worker's
              ``/v1/cluster/solve``
============  ==============================================================

The module also owns both ends of the solve RPC: :func:`serve_solve` is the
worker-side route handler (wire request in, completion out — behind it sits
an ordinary single-host :class:`~repro.service.scheduler.Scheduler`; it
raises on failure, and the worker's server answers the exception with the
error envelope), and :func:`post_json` is the shared HTTP client used by
the leader's RPCs and the worker's heartbeats (bearer token attached,
envelopes decoded to typed exceptions; transport-level failures surface
as ``OSError``/``URLError`` for the caller's dead-host logic).
"""

from __future__ import annotations

import json
from typing import Any
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import numpy as np

from ..faults import fault_hook
from ..service.jobs import SCHEMA_VERSION, JobState
from ..service.scheduler import Scheduler
from ..service.wire import (
    ServiceUnavailableError,
    WireFormatError,
    decode_array,
    encode_array,
    raise_for_http_error,
    request_from_wire,
)

__all__ = [
    "heartbeat_doc",
    "heartbeat_from_wire",
    "completion_doc",
    "completion_from_wire",
    "serve_solve",
    "post_json",
]

#: how long a worker's solve RPC waits for its local job
_SOLVE_WAIT_S = 600.0


def _require_str(doc: dict, key: str, what: str) -> str:
    value = doc.get(key)
    if not isinstance(value, str) or not value:
        raise WireFormatError(f"{what} requires a non-empty string {key!r}")
    return value


def _check_version(doc: Any, what: str) -> dict:
    if not isinstance(doc, dict):
        raise WireFormatError(f"{what} must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise WireFormatError(
            f"{what} has schema_version {version!r}; this build speaks "
            f"{SCHEMA_VERSION}"
        )
    return doc


# ------------------------------------------------------------------ heartbeat
def heartbeat_doc(worker_id: str, url: str, queue_depth: int, draining: bool = False) -> dict:
    """One worker's heartbeat: who it is, where it listens, how loaded it is."""
    return {
        "schema_version": SCHEMA_VERSION,
        "worker_id": str(worker_id),
        "url": str(url),
        "draining": bool(draining),
        "queue_depth": int(queue_depth),
    }


def heartbeat_from_wire(doc: Any) -> dict:
    """Validated heartbeat fields, keyed as :meth:`HostRegistry.heartbeat
    <repro.cluster.registry.HostRegistry.heartbeat>` takes them."""
    doc = _check_version(doc, "heartbeat document")
    queue_depth = doc.get("queue_depth")
    if isinstance(queue_depth, bool) or not isinstance(queue_depth, int) or queue_depth < 0:
        raise WireFormatError(
            f"heartbeat document requires a non-negative integer 'queue_depth', "
            f"got {queue_depth!r}"
        )
    return {
        "worker_id": _require_str(doc, "worker_id", "heartbeat document"),
        "url": _require_str(doc, "url", "heartbeat document"),
        "draining": bool(doc.get("draining")),
        "queue_depth": queue_depth,
    }


# ----------------------------------------------------------------- completion
def completion_doc(
    worker_id: str,
    job_id: str,
    columns: tuple[int, ...],
    block: np.ndarray,
    attributed_solves: int,
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "worker_id": str(worker_id),
        "job_id": str(job_id),
        "columns": [int(c) for c in columns],
        "block": encode_array(np.asarray(block, dtype=float)),
        "attributed_solves": int(attributed_solves),
    }


def completion_from_wire(doc: Any) -> dict:
    """Decoded completion: ``worker_id``/``job_id`` strings, ``columns``
    tuple, ``block`` float64 ndarray, ``attributed_solves`` int."""
    doc = _check_version(doc, "completion document")
    worker_id = _require_str(doc, "worker_id", "completion document")
    job_id = _require_str(doc, "job_id", "completion document")
    columns = doc.get("columns")
    if not isinstance(columns, list):
        raise WireFormatError("completion document requires a 'columns' list")
    block_doc = doc.get("block")
    if not isinstance(block_doc, dict):
        raise WireFormatError("completion document requires a 'block' array")
    block = decode_array(block_doc)
    if block.ndim != 2 or block.shape[1] != len(columns):
        raise WireFormatError(
            f"completion block shape {block.shape} does not match "
            f"{len(columns)} columns"
        )
    return {
        "worker_id": worker_id,
        "job_id": job_id,
        "columns": tuple(int(c) for c in columns),
        "block": block,
        "attributed_solves": int(doc.get("attributed_solves") or 0),
    }


# ------------------------------------------------------------- worker-side RPC
def serve_solve(scheduler: Scheduler, doc: Any, worker_id: str) -> tuple[int, dict]:
    """Handle one leader solve RPC against this worker's scheduler.

    The body is an ordinary ``/v1`` request document restricted to explicit
    columns (the leader always sends the group's union of *missing*
    columns, so the worker solves exactly what the cluster still owes).
    Blocks until the local job is terminal and answers ``(200, completion
    document)`` carrying the block and this worker's cumulative attribution
    — the benchmark's exactly-once gate sums those across hosts.  Once the
    completion is encoded the job is released from the scheduler's
    finished-job retention, so worker memory does not grow with the
    number of RPCs served.

    Failures raise: a bad document is a
    :class:`~repro.service.wire.WireFormatError` (400), a saturated queue a
    :class:`~repro.service.jobs.QueueSaturatedError` (429), and a closed
    scheduler, a job not done within the wait or an injected drop a
    :class:`~repro.service.wire.ServiceUnavailableError` (503).
    """
    if fault_hook("rpc.serve", worker_id=worker_id):
        # an injected drop: pretend the RPC never arrived (the leader's
        # timeout and retry own the recovery)
        raise ServiceUnavailableError("solve RPC dropped (fault)")
    request = request_from_wire(doc)
    if request.columns is None:
        raise WireFormatError("cluster solve requires an explicit column list")
    job_id = scheduler.submit(request)
    job = scheduler.result(job_id, wait_s=_SOLVE_WAIT_S)
    if job.status != JobState.DONE:
        raise ServiceUnavailableError(f"worker job {job_id} ended {job.status}: {job.error}")
    completion = completion_doc(
        worker_id, job_id, request.columns, job.result, scheduler.attributed_solves
    )
    scheduler.release(job_id)
    return 200, completion


# ------------------------------------------------------------------ transport
def post_json(
    url: str,
    doc: dict,
    timeout_s: float = 30.0,
    auth_token: str | None = None,
) -> dict:
    """POST one JSON document; returns the parsed JSON answer.

    HTTP error answers decode through
    :func:`~repro.service.wire.raise_for_http_error` into the same typed
    exceptions the :class:`~repro.service.client.ServiceClient` raises.
    Transport failures (refused connection, reset, timeout) propagate as
    ``OSError``/``URLError`` — the leader treats those, and only those, as
    evidence the host is dead.
    """
    body = json.dumps(doc).encode()
    headers = {"Content-Type": "application/json"}
    if auth_token:
        headers["Authorization"] = f"Bearer {auth_token}"
    request = Request(url, data=body, method="POST", headers=headers)
    try:
        with urlopen(request, timeout=timeout_s) as response:
            return json.loads(response.read())
    except HTTPError as exc:
        raise_for_http_error(exc)
