"""Job descriptions for the extraction service.

A :class:`JobRequest` is the unit of work a client submits to the
:class:`~repro.service.scheduler.Scheduler`: a
:class:`~repro.substrate.parallel.SolverSpec` naming the substrate and solver
configuration, plus *what* the client wants out of the conductance matrix —
whole columns of ``G``, individual ``(row, column)`` entries, or the full
dense matrix — and scheduling metadata (priority, per-job timeout, an
optional solve-tolerance override folded into the spec).  Requests and
specs travel as JSON documents (:func:`~repro.service.wire.request_to_wire`),
over the wire and in the service journal alike; no pickle is involved.

The request's :attr:`~JobRequest.fingerprint` is the coalescing key: requests
with equal fingerprints describe the *same* black box (same physics, same
discretisation, same tolerance), so the scheduler batches their right-hand
sides into shared ``solve_many`` blocks and serves overlapping columns from
the :class:`~repro.service.result_store.ResultStore` without re-solving.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import Future
from dataclasses import dataclass, field, replace

import numpy as np

from ..substrate.parallel import SolverSpec

__all__ = [
    "JobRequest",
    "JobState",
    "Job",
    "JobExpiredError",
    "QueueSaturatedError",
    "SCHEMA_VERSION",
]

#: version stamped into every wire document the service emits (job
#: snapshots, ``/v1/stats``, ``/v1`` bodies).  Bump on any field rename or
#: semantic change; additive fields keep the version.  The snapshot field
#: names themselves are documented in README ("Job snapshot schema") and
#: are a compatibility contract from version 1 on.
SCHEMA_VERSION = 1

#: terminal and non-terminal states a job moves through
JOB_STATES = ("pending", "running", "done", "failed", "cancelled", "timeout", "shed")


class JobExpiredError(KeyError):
    """A job id that once existed but was dropped by finished-job retention.

    Subclasses :class:`KeyError` so callers treating "gone" uniformly keep
    working, while the HTTP layer can answer 410 (expired) instead of the
    404 it sends for ids that never existed.
    """


class QueueSaturatedError(RuntimeError):
    """Admission control refused a submission (queue full, priority too low).

    Carries ``retry_after_s`` — the server's backoff hint, surfaced over
    HTTP as a 429 response with a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class JobState:
    """Namespace of the job lifecycle states (plain strings on the wire)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"
    #: displaced from a saturated queue by a higher-priority submission
    SHED = "shed"

    #: states from which a job can no longer change
    TERMINAL = (DONE, FAILED, CANCELLED, TIMEOUT, SHED)


@dataclass(frozen=True)
class JobRequest:
    """Description of one extraction request, sent and journaled as JSON.

    Parameters
    ----------
    spec:
        Recipe for the substrate solver that defines the conductance matrix.
    columns:
        Contact indices whose ``G`` columns are wanted.  ``None`` together
        with ``pairs=None`` means the full dense matrix (all columns).
    pairs:
        Individual ``(row, column)`` conductance entries.  Served from the
        same solved columns as ``columns`` requests — a pair only costs a
        solve if nobody has asked for its column before.
    tolerance:
        Optional solver ``rtol`` override.  Folded into the spec's options,
        so two requests at different tolerances have different fingerprints
        and are never coalesced.
    priority:
        Larger runs earlier when the scheduler drains its queue.
    timeout_s:
        Deadline (seconds since submission) for the job to *start* solving;
        jobs still queued past it are failed with the ``"timeout"`` status.
    """

    spec: SolverSpec
    columns: tuple[int, ...] | None = None
    pairs: tuple[tuple[int, int], ...] | None = None
    tolerance: float | None = None
    priority: int = 0
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        n = self.spec.layout.n_contacts
        if self.columns is not None:
            cols = tuple(int(c) for c in self.columns)
            if not cols:
                raise ValueError("columns must be non-empty when given")
            if any(not 0 <= c < n for c in cols):
                raise ValueError(f"column indices must lie in [0, {n})")
            object.__setattr__(self, "columns", cols)
        if self.pairs is not None:
            pairs = tuple((int(i), int(j)) for i, j in self.pairs)
            if not pairs:
                raise ValueError("pairs must be non-empty when given")
            if any(not (0 <= i < n and 0 <= j < n) for i, j in pairs):
                raise ValueError(f"pair indices must lie in [0, {n})")
            object.__setattr__(self, "pairs", pairs)
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive when given")

    # ----------------------------------------------------------------- derived
    @property
    def effective_spec(self) -> SolverSpec:
        """The spec actually built, with the tolerance override applied."""
        if self.tolerance is None:
            return self.spec
        return replace(
            self.spec, options={**self.spec.options, "rtol": float(self.tolerance)}
        )

    @property
    def fingerprint(self) -> str:
        """Coalescing key: the effective spec's substrate/solver digest.

        The 32-hex-character :attr:`SolverSpec.fingerprint
        <repro.substrate.parallel.SolverSpec.fingerprint>` of
        :attr:`effective_spec`, so it covers the tolerance override too.  A
        short string because the service hashes it per stored column.
        Cached on the (frozen) request: with a tolerance override,
        ``effective_spec`` builds a fresh spec per access, which would
        otherwise redo the digest on every drain cycle.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            cached = self.effective_spec.fingerprint
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    @property
    def n_contacts(self) -> int:
        return self.spec.layout.n_contacts

    def needed_columns(self) -> tuple[int, ...]:
        """Sorted, de-duplicated column indices this request depends on."""
        if self.columns is None and self.pairs is None:
            return tuple(range(self.n_contacts))
        needed: set[int] = set(self.columns or ())
        needed.update(j for _, j in self.pairs or ())
        return tuple(sorted(needed))


def _running_future() -> Future:
    """A pending future already marked running: ``cancel()`` cannot end it,
    so a waiter that gives up (an asyncio ``wait_for`` timing out on
    ``asyncio.wrap_future``) leaves it for the dispatcher to resolve."""
    future: Future = Future()
    future.set_running_or_notify_cancel()
    return future


@dataclass
class Job:
    """Scheduler-side record of one submitted request (not picklable).

    ``result`` is the ``(n_contacts, len(result_columns))`` block of solved
    ``G`` columns (``result_columns`` is ``request.columns``, or all contacts
    for a dense request); ``pair_values`` aligns with ``request.pairs``.
    """

    job_id: str
    request: JobRequest
    submitted_at: float
    priority: int = 0
    status: str = JobState.PENDING
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    #: truncated traceback of the exception behind ``error`` (lets a client
    #: diagnose a failed job without access to the server's stderr)
    error_traceback: str | None = None
    #: solve attempts this job's coalesced group has consumed so far
    attempts: int = 0
    #: per-attempt failure records: ``{"attempt", "error", "traceback"}``
    history: list = field(default_factory=list)
    result: np.ndarray | None = None
    result_columns: tuple[int, ...] | None = None
    pair_values: np.ndarray | None = None
    #: resolved with the terminal status once the job reaches one (threads
    #: wait on it in :meth:`Scheduler.result`, the front door's event loop
    #: through ``asyncio.wrap_future``)
    done: Future = field(default_factory=_running_future, repr=False)
    #: ``"columns"`` callback set at submit (streaming), called on the
    #: dispatcher thread as the job's columns land; cleared at finalize
    watcher: Callable[[dict], None] | None = field(default=None, repr=False)

    @property
    def deadline(self) -> float | None:
        if self.request.timeout_s is None:
            return None
        return self.submitted_at + self.request.timeout_s

    @property
    def latency_s(self) -> float | None:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def snapshot(self) -> dict:
        """View of the job; ``result``/``pair_values`` stay ndarrays.

        :func:`~repro.service.wire.snapshot_to_wire` is the one encoder
        that turns this into a JSON document.  The arrays are shared, not
        copied: the scheduler writes them once, under its lock, before the
        terminal transition, and never touches them again.

        Result fields are exposed only in terminal states: a poll racing
        the assembly of a RUNNING job must never observe partially written
        ``result_columns``/``result``/``pair_values``.  Call under the
        scheduler lock (:meth:`~repro.service.scheduler.Scheduler.snapshot`)
        so status and result fields are read consistently.
        """
        terminal = self.status in JobState.TERMINAL
        return {
            "schema_version": SCHEMA_VERSION,
            "job_id": self.job_id,
            "status": self.status,
            "priority": self.priority,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "latency_s": self.latency_s,
            "error": self.error,
            "error_traceback": self.error_traceback,
            "attempts": self.attempts,
            "history": [dict(entry) for entry in self.history],
            "columns": (
                list(self.result_columns) if terminal and self.result_columns else None
            ),
            "result": self.result if terminal else None,
            "pairs": [list(p) for p in self.request.pairs] if self.request.pairs else None,
            "pair_values": self.pair_values if terminal else None,
        }
