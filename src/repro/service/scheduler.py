"""Job scheduler with cross-request coalescing over shared substrates.

This is the service's engine room.  Clients :meth:`~Scheduler.submit`
:class:`~repro.service.jobs.JobRequest` objects and block on
:meth:`~Scheduler.result`; a dispatcher thread drains the queue in cycles and
turns each cycle's jobs into the *minimum* amount of solver work:

* **Coalescing.**  Jobs over the same substrate fingerprint
  (:attr:`JobRequest.fingerprint`) are grouped into one batch; the union of
  their needed columns is submitted as a single ``solve_many`` block, so the
  factor is built once and one dispatch decision covers right-hand sides
  from many clients.  Requests queued while a batch is solving pile up and
  coalesce into the next cycle — the busier the service, the better it
  batches.
* **Result store.**  Solved columns land in a
  :class:`~repro.service.result_store.ResultStore` LRU keyed on
  ``(fingerprint, column)``; any column someone already paid for is served
  with zero new solves, across jobs and across clients.
* **Persistent extraction engines.**  Each live substrate keeps a warm
  engine — the solver its spec builds, factor prepared — in a small LRU
  pool, so consecutive batches pay solve cost only.  Solving runs in this
  process, on the dispatcher thread; the solver's own kernels are threaded
  (``fft_workers`` for the stacked DCTs, BLAS for the Cholesky).  A batch of
  ``m`` fresh columns is charged exactly ``m`` black-box solves through a
  :class:`~repro.substrate.solver_base.CountingSolver`, identical to what
  isolated per-request extraction would report for those columns.

Scheduling is priority-aware (higher-priority fingerprint groups solve
first), jobs may be cancelled while queued, and a queued job past its
``timeout_s`` deadline is failed with the ``"timeout"`` status instead of
occupying the solver.  For deterministic tests construct with
``autostart=False`` and call :meth:`step` to run drain cycles by hand.

**Completion and streaming.**  Every job's :attr:`~repro.service.jobs.Job.done`
future resolves with its terminal status on the final state transition;
:meth:`result` waits on it, and the async front door awaits it on its
event loop, so a waiting client holds no thread.  A job may also carry a
*watcher* (:attr:`~repro.service.jobs.Job.watcher`, set at :meth:`submit`)
— a callback that sees a ``"columns"`` event from inside the solve as
soon as the job's columns become available (result-store hits at the
start of the batch, freshly solved columns the moment their coalesced
group's solve lands — *before* the job is assembled and finalized).  This
is what the front door's NDJSON streaming endpoint rides on: a streamed
column reaches the client before its job completes.  Watchers run on the
dispatcher thread and must be fast and non-blocking (hand the event to a
queue); they must never call back into the scheduler.

**Live state only.**  Besides queued and running jobs the scheduler holds
the finished jobs retention allows, a :class:`CircuitBreaker` per *failing*
fingerprint (a successful batch drops it) and counters.  An id it no longer
holds has *expired* if it is ``job-%06d`` at or below the id sequence, which
the journal restores on restart; any other id was never issued.

With a state-dir path (``persistence=``) the scheduler builds and owns a
:class:`~repro.service.persistence.ServicePersistence` and becomes durable:
the result store writes through to the sqlite corpus, the factor cache
consults the on-disk artifact store before rebuilding, every accepted
request is journaled (fsync'd) *before* the submit acknowledges, and
journaled-but-unfinished jobs are replayed at construction — so a crash or
restart loses no accepted work and re-serves the solved corpus with zero
new solves.
"""

from __future__ import annotations

import os
import random
import re
import threading
import time
import traceback
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import astuple, dataclass

import numpy as np

from ..faults import fault_hook
from ..substrate.extraction import extract_columns
from ..substrate.factor_cache import factor_cache
from ..substrate.parallel import SolverSpec
from ..substrate.solver_base import CountingSolver, SolveStats, SubstrateSolver
from .jobs import Job, JobExpiredError, JobRequest, JobState, QueueSaturatedError
from .metrics import ServiceMetrics
from .persistence import ServicePersistence
from .result_store import ResultStore
from .wire import ServiceUnavailableError, request_to_wire

__all__ = [
    "Scheduler",
    "ExtractorPool",
    "RetryPolicy",
    "CircuitBreaker",
]

#: fingerprint groups one drain cycle solves at once when a remote solver
#: is set: the cluster leader's "solve" waits on a worker RPC, and groups
#: pinned to different hosts must overlap or the whole cluster is capped
#: at single-host throughput
_REMOTE_GROUP_WIDTH = 8

#: characters of formatted traceback kept on a failed job (the tail carries
#: the raising frame; unbounded tracebacks would bloat snapshots/journals)
TRACEBACK_LIMIT = 2000


def _truncated_traceback(limit: int = TRACEBACK_LIMIT) -> str:
    """The current exception's formatted traceback, tail-truncated."""
    text = traceback.format_exc().strip()
    if len(text) > limit:
        text = "... (truncated)\n" + text[-limit:]
    return text


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for failed coalesced batches.

    Attempt ``i`` (1-based) failing sleeps ``min(cap_s, base_delay_s *
    2**(i-1))`` scaled by a uniform jitter in ``[1, 1+jitter]`` before the
    next attempt; after ``max_attempts`` failures the group fails for real.
    ``max_attempts=1`` disables retrying.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    cap_s: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.cap_s < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")

    def delay_s(self, attempt: int) -> float:
        """Backoff before retrying after the ``attempt``-th failure (1-based)."""
        base = min(self.cap_s, self.base_delay_s * (2 ** max(attempt - 1, 0)))
        return base * (1.0 + self.jitter * random.random())


class CircuitBreaker:
    """Per-fingerprint failure latch: open after repeated failures, probe later.

    Classic three-state breaker: **closed** counts consecutive failures and
    opens at ``failure_threshold``; **open** rejects the fingerprint's groups
    instantly — one poisoned substrate must not burn retry budget and queue
    time every cycle — until ``reset_s`` has passed; then one **half-open**
    probe group is let through, and a failed probe re-opens the breaker.
    The scheduler creates a breaker at its fingerprint's first failed
    attempt and drops it when a batch succeeds, so a closed breaker with no
    failures is never stored.  Not thread-safe on its own; each breaker is
    touched only by the one thread running its fingerprint's group.
    """

    def __init__(self, failure_threshold: int = 3, reset_s: float = 30.0) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.failure_threshold = int(failure_threshold)
        self.reset_s = float(reset_s)
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at: float | None = None

    def allow(self, now: float | None = None) -> bool:
        """May a batch for this fingerprint run now? (may move open->half-open)"""
        if self.state == "closed":
            return True
        now = time.monotonic() if now is None else now
        if self.state == "open" and now - self.opened_at >= self.reset_s:
            self.state = "half_open"
        return self.state == "half_open"

    def record_failure(self, now: float | None = None) -> bool:
        """Count one failed attempt; True when the breaker just tripped open."""
        self.consecutive_failures += 1
        tripped = self.state != "open" and (
            self.state == "half_open"
            or self.consecutive_failures >= self.failure_threshold
        )
        if tripped:
            self.state = "open"
            self.opened_at = time.monotonic() if now is None else now
        return tripped


class ExtractorPool:
    """LRU pool of warm engines, one per substrate.

    An engine is the solver its :class:`~repro.substrate.parallel.SolverSpec`
    builds, with its direct factor prepared where the solver has one.
    Building it is the expensive part of serving a request (solver
    construction, ``A_cc`` assembly, factorisation), so the pool keeps the
    ``max_solvers`` most recently used engines alive across jobs and drops
    the least recently used beyond that.  Engines are keyed by substrate
    fingerprint; the spec that first names a fingerprint defines the engine.
    """

    def __init__(self, max_solvers: int = 4) -> None:
        if max_solvers < 1:
            raise ValueError("max_solvers must be at least 1")
        self.max_solvers = int(max_solvers)
        # reprolint: guarded-by(_lock)
        self._engines: "OrderedDict[str, SubstrateSolver]" = OrderedDict()
        self._lock = threading.RLock()
        self.engines_built = 0  # reprolint: guarded-by(_lock)
        self.engines_evicted = 0  # reprolint: guarded-by(_lock)

    def get(self, fingerprint: str, spec: SolverSpec) -> SubstrateSolver:
        """The warm engine for ``fingerprint``, building (and warming) on miss.

        The cold build (solver construction and factorisation) runs
        *outside* the pool lock so :meth:`info` — the ``/v1/stats`` endpoint
        an operator polls exactly when the service looks busy — never blocks
        behind it.
        """
        with self._lock:
            engine = self._engines.get(fingerprint)
            if engine is not None:
                self._engines.move_to_end(fingerprint)
                return engine
        fault_hook("factor.build", kind=spec.kind)
        built = spec.build()
        prepare = getattr(built, "prepare_direct", None)
        if prepare is not None:
            prepare()
        with self._lock:
            engine = self._engines.get(fingerprint)
            if engine is not None:
                # a concurrent caller won the build race; theirs is the
                # pooled engine, ours is dropped
                self._engines.move_to_end(fingerprint)
                return engine
            self._engines[fingerprint] = built
            self.engines_built += 1
            while len(self._engines) > self.max_solvers:
                self._engines.popitem(last=False)
                self.engines_evicted += 1
        return built

    def close(self) -> None:
        """Drop every engine (idempotent)."""
        with self._lock:
            self._engines.clear()

    def info(self) -> dict:
        with self._lock:
            return {
                "live": len(self._engines),
                "max_solvers": self.max_solvers,
                "built": self.engines_built,
                "evicted": self.engines_evicted,
            }


class Scheduler:
    """Front door of the extraction service (see module docstring).

    Parameters
    ----------
    n_workers:
        Must be ``1``, the default; any other value raises ``ValueError``.
        Solving is in process, on each substrate's one engine, and the
        solver's kernels are threaded (``fft_workers``, BLAS).
    store:
        The :class:`~repro.service.result_store.ResultStore` to serve
        repeated queries from; a fresh budgeted store by default.
    max_solvers:
        How many substrates keep a warm engine at once (LRU beyond that).
    autostart:
        Start the background dispatcher thread.  ``False`` leaves the queue
        untouched until :meth:`step` is called (deterministic tests).
    max_jobs_retained / max_result_bytes_retained:
        Finished jobs kept for late :meth:`result` pickup; the oldest
        terminal jobs are dropped once either the job count or the total
        bytes of retained result arrays exceed the bound (a service serving
        wide column blocks must not accumulate result memory forever — the
        store is byte-budgeted, so its feed is too).
    persistence:
        A state-dir path, from which the scheduler builds (and on
        :meth:`close` closes) a
        :class:`~repro.service.persistence.ServicePersistence`, or ``None``
        for a purely in-memory service.
    retry_policy:
        Backoff schedule for failed coalesced batches (:class:`RetryPolicy`;
        ``None`` fails a group on its first exception, the pre-retry
        behaviour).
    max_queue_depth:
        Admission-control bound on the pending queue.  When full, a new
        submission either displaces the lowest-priority queued job (when it
        outranks one — that job ends in the terminal ``"shed"`` state) or is
        refused with :class:`QueueSaturatedError` (HTTP 429).  ``None``
        (default) keeps the queue unbounded.
    breaker_failure_threshold / breaker_reset_s:
        Per-fingerprint :class:`CircuitBreaker` tuning: consecutive failed
        *attempts* before the fingerprint's groups are rejected instantly,
        and how long the breaker stays open before a half-open probe.  A
        fingerprint has a breaker only from its first failed attempt until
        its next successful batch.
    remote_solver:
        The solver every batch calls, a callable ``(fingerprint, spec,
        columns) -> (n, k) block``; by default the warm local engine.  The
        cluster leader plugs its route-and-RPC here, so the shape check,
        coalescing, the result store, streaming, journaling, retry/backoff
        and the per-fingerprint breakers wrap remote work unchanged.  A
        raising remote solver is retried exactly like a failing local
        batch (that retry *is* the cluster's failover path).  Only local
        solves count in ``attributed_solves`` — a leader runs none; its
        remote columns are ``coalescing.columns_solved``.  With a remote
        solver one drain cycle solves up to 8 fingerprint groups at once
        (they wait on different hosts); without one, groups run one after
        another on the dispatcher thread.  Each group runs on exactly one
        thread, so per-fingerprint state (its breaker, its engine) keeps
        its single-threaded discipline.
    stats_extra:
        Optional zero-argument callable whose dict result is merged into
        the ``/v1/stats`` body (the leader injects its registry/router view).
    """

    def __init__(
        self,
        n_workers: int = 1,
        store: ResultStore | None = None,
        max_solvers: int = 4,
        autostart: bool = True,
        max_jobs_retained: int = 10_000,
        max_result_bytes_retained: int = 256 * 1024 * 1024,
        persistence: "str | os.PathLike | None" = None,
        retry_policy: RetryPolicy | None = RetryPolicy(),
        max_queue_depth: int | None = None,
        breaker_failure_threshold: int = 3,
        breaker_reset_s: float = 30.0,
        remote_solver=None,
        stats_extra=None,
    ) -> None:
        if n_workers != 1:
            raise ValueError(
                f"n_workers must be 1, got {n_workers!r}: solving is in-process "
                "on one engine per substrate, and the solver's kernels are "
                "threaded (fft_workers for the DCTs, BLAS for the Cholesky)"
            )
        self.persistence = ServicePersistence(persistence) if persistence is not None else None
        self.store = store if store is not None else ResultStore()
        self.metrics = ServiceMetrics()
        self.pool = ExtractorPool(max_solvers=max_solvers)
        self.max_jobs_retained = int(max_jobs_retained)
        self.max_result_bytes_retained = int(max_result_bytes_retained)
        if retry_policy is None:
            retry_policy = RetryPolicy(max_attempts=1)
        self.retry_policy = retry_policy
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1 when given")
        self.max_queue_depth = max_queue_depth
        self._breaker_failure_threshold = int(breaker_failure_threshold)
        self._breaker_reset_s = float(breaker_reset_s)
        #: failure latches of the fingerprints whose batches are failing; the
        #: table is guarded by _cv, each breaker is touched by the one thread
        #: running its group's batch
        self._breakers: dict[str, CircuitBreaker] = {}  # reprolint: guarded-by(_cv)
        self._jobs: dict[str, Job] = {}  # reprolint: guarded-by(_cv)
        self._pending: list[str] = []  # reprolint: guarded-by(_cv)
        self._terminal: "deque[str]" = deque()  # reprolint: guarded-by(_cv)
        self._retained_bytes = 0  # reprolint: guarded-by(_cv)
        #: last issued job sequence number (the module docstring's expired-id rule)
        self._seq = 0  # reprolint: guarded-by(_cv)
        self._running = 0  # reprolint: guarded-by(_cv)
        self._cv = threading.Condition()
        self._drain_lock = threading.Lock()
        self._closing = False  # reprolint: guarded-by(_cv)
        #: cumulative CountingSolver attribution of every batch this
        #: scheduler ran (equals fresh columns solved; pinned by tests)
        self._attributed_solves = 0  # reprolint: guarded-by(_cv)
        self._solve = remote_solver if remote_solver is not None else self._solve_local
        self._stats_extra = stats_extra
        self._group_executor = (
            ThreadPoolExecutor(
                max_workers=_REMOTE_GROUP_WIDTH,
                thread_name_prefix="repro-service-group",
            )
            if remote_solver is not None
            else None
        )
        self._attached_artifacts = False
        self._thread: threading.Thread | None = None
        if self.persistence is not None:
            self.store.attach_backend(self.persistence.results)
            cache = factor_cache()
            if cache.artifact_store is None:
                cache.set_artifact_store(self.persistence.artifacts)
                self._attached_artifacts = True
            try:
                self._replay_journal()
            except BaseException:
                # a journal this build cannot replay fails startup; release
                # the state dir and the process-wide artifact store first
                self.close()
                raise
        if autostart:
            self._thread = threading.Thread(
                target=self._run, name="repro-service-dispatcher", daemon=True
            )
            self._thread.start()

    def _replay_journal(self) -> None:
        """Re-queue journaled jobs that never reached a terminal state."""
        replay, max_seq = self.persistence.journal.recover()
        with self._cv:
            self._seq = max(self._seq, max_seq)
            now = time.monotonic()
            for job_id, request in replay:
                job = Job(
                    job_id=job_id,
                    request=request,
                    submitted_at=now,  # the deadline clock restarts on replay
                    priority=int(request.priority),
                )
                self._jobs[job_id] = job
                self._pending.append(job_id)
            if replay:
                self._cv.notify_all()
        for _ in replay:
            self.metrics.record_submit()
            self.metrics.record_replay()

    # ----------------------------------------------------------------- clients
    def submit(self, request: JobRequest, watcher=None) -> str:
        """Queue one request; returns the job id immediately.

        With persistence attached the request is journaled as its ``/v1``
        wire document — flushed and fsync'd — *before* the id is
        acknowledged, so an accepted job survives any later crash.  A
        request the wire cannot encode raises
        :class:`~repro.service.wire.WireFormatError` before anything is
        queued or journaled.  The fsync runs outside the scheduler lock
        (disk latency must not stall the dispatcher); the id is reserved
        first, the job enqueued after the journal write lands.

        ``watcher`` is the job's ``"columns"`` callback, set on the job
        before it is enqueued (see the module docstring's completion and
        streaming section), so it can never miss an event.  A closed
        scheduler raises :class:`~repro.service.wire.ServiceUnavailableError`
        (HTTP 503).
        """
        if not isinstance(request, JobRequest):
            raise TypeError("submit() takes a JobRequest")
        journal = self.persistence.journal if self.persistence is not None else None
        document = request_to_wire(request) if journal is not None else None
        rejected = None
        with self._cv:
            if self._closing:
                raise ServiceUnavailableError("scheduler is closed")
            if (
                self.max_queue_depth is not None
                and len(self._pending) >= self.max_queue_depth
            ):
                rejected = not self._shed_for_locked(int(request.priority))
            if not rejected:
                self._seq += 1
                job_id = f"job-{self._seq:06d}"
        if rejected:
            self.metrics.record_rejected_submit()
            retry_after = self.metrics.recent_p50_s() or 1.0
            raise QueueSaturatedError(
                f"queue saturated ({self.max_queue_depth} pending); "
                f"priority {request.priority} does not outrank any queued job",
                retry_after_s=retry_after,
            )
        if journal is not None:
            journal.record_accept(job_id, document)
        with self._cv:
            if self._closing:
                # closed between the id reservation and the enqueue: void
                # the journal entry so a restart does not replay a job the
                # client never got an id for
                if journal is not None:
                    journal.record_terminal(job_id, JobState.CANCELLED)
                raise ServiceUnavailableError("scheduler is closed")
            job = Job(
                job_id=job_id,
                request=request,
                submitted_at=time.monotonic(),
                priority=int(request.priority),
                watcher=watcher,
            )
            self._jobs[job_id] = job
            self._pending.append(job_id)
            self._cv.notify_all()
        self.metrics.record_submit()
        return job_id

    # reprolint: holds(_cv)
    def _shed_for_locked(self, priority: int) -> bool:
        """Displace the weakest queued job for an incoming one (caller holds ``_cv``).

        Returns True when a pending job with priority strictly below
        ``priority`` was shed (terminal ``"shed"`` state, journaled), False
        when the queue holds nothing the newcomer outranks — the caller
        must then refuse the submission instead.
        """
        victim = None
        for job_id in reversed(self._pending):
            job = self._jobs[job_id]
            if job.status != JobState.PENDING:
                continue
            if victim is None or job.priority < victim.priority:
                victim = job
        if victim is None or victim.priority >= priority:
            return False
        self._pending.remove(victim.job_id)
        victim.error = (
            f"shed from a saturated queue by a priority-{priority} submission"
        )
        self._finalize_locked(victim, JobState.SHED)
        return True

    def cancel(self, job_id: str) -> bool:
        """Cancel a job that has not started; True when it was cancelled."""
        with self._cv:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job id {job_id!r}")
            if job.status != JobState.PENDING:
                return False
            self._finalize_locked(job, JobState.CANCELLED)
            return True

    def result(self, job_id: str, wait_s: float | None = None) -> Job:
        """The job record, optionally blocking until it reaches a terminal state.

        ``wait_s=None`` returns the current state immediately; a positive
        value blocks up to that long.  The returned object is the live
        record — read ``status`` / ``result`` / ``pair_values`` from it.
        Raises :class:`~repro.service.jobs.JobExpiredError` (a ``KeyError``
        subclass) for an id this service issued that is no longer held
        (dropped by finished-job retention or :meth:`release`, finished
        before a restart, or voided by :meth:`close` before its enqueue),
        plain ``KeyError`` for any other id.
        """
        with self._cv:
            job = self._jobs.get(job_id)
            if job is None:
                match = re.fullmatch(r"job-([0-9]{6,20})", job_id)
                n = int(match[1]) if match else 0
                if 1 <= n <= self._seq and job_id == f"job-{n:06d}":
                    raise JobExpiredError(f"job id {job_id!r} expired")
                raise KeyError(f"unknown job id {job_id!r}")
        if wait_s is not None:
            wait((job.done,), timeout=wait_s)
        return job

    def release(self, job_id: str) -> bool:
        """Drop one terminal job from finished-job retention now.

        For a caller that has already consumed the result — the cluster
        worker's solve RPC answers with the block inline, so nobody will
        ever pick the job up.  A later :meth:`result` raises
        :class:`~repro.service.jobs.JobExpiredError`.  Returns ``False``
        (and keeps the job) when it is unknown, already dropped, or not yet
        terminal.
        """
        with self._cv:
            job = self._jobs.get(job_id)
            if job is None or job.status not in JobState.TERMINAL:
                return False
            del self._jobs[job_id]
            self._terminal.remove(job_id)
            self._retained_bytes -= self._result_nbytes(job)
            return True

    def snapshot(self, job_id: str) -> dict:
        """A consistent view of one job, taken under the scheduler lock.

        This is what ``GET /v1/jobs/<id>`` serves (encoded by
        :func:`~repro.service.wire.snapshot_to_wire`): status and result
        fields are read atomically, so a poll racing a finishing batch can
        never observe a partially assembled result.
        """
        job = self.result(job_id)
        with self._cv:
            return job.snapshot()

    @property
    def queue_depth(self) -> int:
        with self._cv:
            return len(self._pending)

    @property
    def attributed_solves(self) -> int:
        """Cumulative attributed solves, read under the scheduler lock.

        The one number a cluster worker's solve RPC reports; far cheaper
        than :meth:`stats`, which renders the whole ``/v1/stats`` document.
        """
        with self._cv:
            return self._attributed_solves

    def stats(self) -> dict:
        """Aggregated metrics snapshot (the ``/v1/stats`` endpoint body)."""
        with self._cv:
            queue_depth = len(self._pending)
            running = self._running
            attributed_solves = self._attributed_solves
        extra = {
            "engines": self.pool.info(),
            "attributed_solves": attributed_solves,
        }
        if self.persistence is not None:
            extra["persistence"] = self.persistence.info()
        if self._stats_extra is not None:
            extra.update(self._stats_extra())
        return self.metrics.snapshot(
            queue_depth=queue_depth,
            store_info=self.store.info(),
            running=running,
            extra=extra,
        )

    def health(self) -> dict:
        """Liveness report (the ``/v1/healthz`` endpoint body).

        ``ok`` is true only while the service can actually make progress:
        not closing, dispatcher thread alive (a manual ``autostart=False``
        scheduler counts as healthy while open — its owner is the
        dispatcher), and the state directory writable when persistence is
        attached.
        """
        with self._cv:
            closing = self._closing
            open_breakers = sum(
                1 for b in self._breakers.values() if b.state != "closed"
            )
        thread = self._thread
        dispatcher_alive = thread.is_alive() if thread is not None else not closing
        doc = {
            "ok": dispatcher_alive and not closing,
            "dispatcher_alive": dispatcher_alive,
            "closing": closing,
            # degraded-but-alive detail: open breakers and the resilience
            # counters do not flip ok — the service still makes progress
            "open_breakers": open_breakers,
            "faults": self.metrics.fault_counters(),
        }
        if self.persistence is not None:
            writable = self.persistence.writable()
            doc["state_dir_writable"] = writable
            doc["ok"] = doc["ok"] and writable
        return doc

    # --------------------------------------------------------------- lifecycle
    def close(self, timeout_s: float = 60.0) -> None:
        """Stop the dispatcher, fail queued jobs, drop the engines.

        Waits up to ``timeout_s`` for an in-flight batch to finish.  If the
        dispatcher is still mid-batch after that, the engines and the state
        dir are left as they are (the dispatcher is a daemon thread and
        dies with the process) rather than pulled out from under the batch.
        """
        with self._cv:
            if self._closing:
                return
            self._closing = True
            pending, self._pending = self._pending, []
            for job_id in pending:
                job = self._jobs[job_id]
                if job.status == JobState.PENDING:
                    job.error = "scheduler closed"
                    # journal=False: a graceful shutdown must not mark
                    # accepted-but-unserved work terminal — the journal
                    # replays it on the next start instead of dropping it
                    self._finalize_locked(job, JobState.FAILED, journal=False)
            self._cv.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            if self._thread.is_alive():  # pragma: no cover - stuck batch
                return
            self._thread = None
        if self._group_executor is not None:
            self._group_executor.shutdown(wait=True)
        self.pool.close()
        if self.persistence is not None:
            if self._attached_artifacts:
                cache = factor_cache()
                if cache.artifact_store is self.persistence.artifacts:
                    cache.set_artifact_store(None)
                self._attached_artifacts = False
            self.store.attach_backend(None)
            self.persistence.close()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown guard
        try:
            self.close()
        except Exception:
            pass

    # -------------------------------------------------------------- dispatcher
    def _run(self) -> None:
        while True:
            with self._cv:
                while not self._pending and not self._closing:
                    self._cv.wait()
                if self._closing:
                    return
            self.step()

    def step(self) -> int:
        """Run one drain cycle synchronously; returns the number of jobs served.

        Pops everything currently queued, times out overdue jobs, groups the
        rest by substrate fingerprint and solves each group as one coalesced
        batch (highest priority group first).  The background dispatcher
        calls this in a loop; tests with ``autostart=False`` call it by hand
        to make coalescing deterministic.
        """
        if fault_hook("dispatch.cycle"):
            # an injected dropped cycle: queued jobs stay queued and are
            # picked up by the next drain, exactly like a stalled dispatcher
            return 0
        with self._drain_lock:
            with self._cv:
                pending, self._pending = self._pending, []
                jobs = []
                now = time.monotonic()
                for job_id in pending:
                    job = self._jobs[job_id]
                    if job.status != JobState.PENDING:
                        continue  # cancelled while queued
                    if job.deadline is not None and now > job.deadline:
                        job.error = (
                            f"job timed out after {job.request.timeout_s:g}s in queue"
                        )
                        self._finalize_locked(job, JobState.TIMEOUT)
                        continue
                    jobs.append(job)
            if not jobs:
                return 0
            groups: "OrderedDict[str, list[Job]]" = OrderedDict()
            for job in jobs:
                groups.setdefault(job.request.fingerprint, []).append(job)
            ordered = sorted(
                groups.items(), key=lambda kv: -max(j.priority for j in kv[1])
            )
            served = sum(len(group) for _, group in ordered)
            if self._group_executor is not None and len(ordered) > 1:
                # fan groups out (the leader's remote solves overlap across
                # hosts); each group still runs on exactly one thread, and
                # _drain_lock keeps cycles from overlapping each other
                futures = [
                    self._group_executor.submit(self._run_batch, fp, group)
                    for fp, group in ordered
                ]
                for future in futures:
                    future.result()  # _run_batch never raises; surface bugs
            else:
                for fingerprint, group in ordered:
                    self._run_batch(fingerprint, group)
            return served

    # -------------------------------------------------------------- streaming
    def _notify_columns(
        self, jobs: list[Job], available: dict[int, np.ndarray], source: str
    ) -> None:
        """Fire one ``"columns"`` event per watched job that gained columns.

        Called from the dispatcher mid-batch: once with the result-store
        hits before any solving, once per solve landing — so a watcher sees
        its job's columns as the coalesced group produces them, not when
        the whole job is assembled.  Events are at-least-once (a retried
        attempt re-announces store hits); consumers dedupe by column.
        """
        if not available:
            return
        for job in jobs:
            watcher = job.watcher  # unlocked: only this thread finalizes a running job
            if watcher is None:
                continue
            cols = tuple(
                c for c in job.request.needed_columns() if c in available
            )
            if not cols:
                continue
            event = {
                "kind": "columns",
                "job_id": job.job_id,
                "columns": cols,
                "arrays": {c: available[c] for c in cols},
                "source": source,
            }
            try:
                watcher(event)
            except Exception:  # noqa: BLE001 - a watcher must not kill a batch
                pass

    # ------------------------------------------------------------------ batch
    def _run_batch(self, fingerprint: str, jobs: list[Job]) -> None:
        """Solve one coalesced group, retrying failed attempts with backoff.

        Each attempt re-consults the result store first, so columns that
        landed before a mid-batch failure are never re-solved (and never
        re-attributed).  A fingerprint whose attempts keep failing trips its
        :class:`CircuitBreaker`; while the breaker is open the group fails
        instantly instead of burning retry budget every cycle.
        """
        now = time.monotonic()
        with self._cv:
            # re-check under the lock: a job popped by this cycle may have
            # been cancelled before its group's turn came up — reviving it
            # here would finalize it twice (cancelled *and* done)
            jobs = [job for job in jobs if job.status == JobState.PENDING]
            for job in jobs:
                job.status = JobState.RUNNING
                job.started_at = now
                self._running += 1
        if not jobs:
            return
        with self._cv:
            breaker = self._breakers.get(fingerprint)
        if breaker is not None and not breaker.allow():
            message = (
                "circuit breaker open for this substrate "
                f"(probe allowed after {breaker.reset_s:g}s)"
            )
            with self._cv:
                for job in jobs:
                    if job.status not in JobState.TERMINAL:
                        job.error = message
                        self._finalize_locked(job, JobState.FAILED)
            return
        policy = self.retry_policy
        for attempt in range(1, policy.max_attempts + 1):
            with self._cv:
                for job in jobs:
                    if job.status not in JobState.TERMINAL:
                        job.attempts = attempt
            try:
                self._solve_group(fingerprint, jobs)
            except Exception as exc:  # noqa: BLE001 - a batch must never kill the loop
                error = f"{type(exc).__name__}: {exc}"
                tb = _truncated_traceback()
                with self._cv:
                    jobs = [j for j in jobs if j.status not in JobState.TERMINAL]
                    for job in jobs:
                        job.history.append(
                            {"attempt": attempt, "error": error, "traceback": tb}
                        )
                if not jobs:
                    return
                if breaker is None:
                    breaker = CircuitBreaker(self._breaker_failure_threshold, self._breaker_reset_s)
                    with self._cv:
                        self._breakers[fingerprint] = breaker
                if breaker.record_failure():
                    self.metrics.record_breaker_open()
                    exhausted = True  # an open breaker ends the retry loop too
                else:
                    exhausted = attempt >= policy.max_attempts
                if exhausted:
                    with self._cv:
                        for job in jobs:
                            if job.status not in JobState.TERMINAL:
                                job.error = error
                                job.error_traceback = tb
                                self._finalize_locked(job, JobState.FAILED)
                    return
                self.metrics.record_retry()
                time.sleep(policy.delay_s(attempt))
            else:
                with self._cv:
                    self._breakers.pop(fingerprint, None)
                return

    def _solve_group(self, fingerprint: str, jobs: list[Job]) -> None:
        """One solve attempt for a coalesced group (store → solve → assemble).

        Attribution stays exact under retries: every attempt starts from the
        store, so previously landed columns cost zero new solves.
        """
        union: set[int] = set()
        for job in jobs:
            union.update(job.request.needed_columns())
        needed = tuple(sorted(union))
        columns = self.store.get_many(fingerprint, needed)
        to_solve = tuple(c for c in needed if c not in columns)
        # stream store hits immediately: a job whose columns someone already
        # paid for sees them before this batch solves anything
        self._notify_columns(jobs, columns, source="store")
        if to_solve:
            block = np.asarray(
                self._solve(fingerprint, jobs[0].request.effective_spec, to_solve),
                dtype=float,
            )
            expected = (jobs[0].request.n_contacts, len(to_solve))
            if block.shape != expected:
                raise RuntimeError(f"solver returned shape {block.shape}, expected {expected}")
            for idx, column in enumerate(to_solve):
                columns[column] = self.store.put(fingerprint, column, block[:, idx])
            # stream the freshly solved columns the moment the group's solve
            # lands — before any job in the group is assembled or finalized
            self._notify_columns(
                jobs, {c: columns[c] for c in to_solve}, source="solve"
            )
        self.metrics.record_batch(
            n_jobs=len(jobs),
            n_columns_requested=len(needed),
            n_columns_solved=len(to_solve),
            n_columns_from_store=len(needed) - len(to_solve),
        )
        for job in jobs:
            self._assemble(job, columns)

    def _solve_local(
        self, fingerprint: str, spec: SolverSpec, columns: tuple[int, ...]
    ) -> np.ndarray:
        """``G[:, columns]`` from the substrate's warm engine.

        Charged exactly ``len(columns)`` attributed solves; the counters the
        engine gained meanwhile are folded into the service's ``solve_stats``.
        """
        engine = self.pool.get(fingerprint, spec)
        counting = CountingSolver(engine)
        before = astuple(engine.stats)
        block = extract_columns(counting, np.asarray(columns, dtype=int))
        self.metrics.record_solve_stats(
            SolveStats(*(now - then for now, then in zip(astuple(engine.stats), before)))
        )
        with self._cv:
            self._attributed_solves += counting.solve_count
        return block

    def _assemble(self, job: Job, columns: dict[int, np.ndarray]) -> None:
        """Build one job's result views from the batch's solved columns.

        The views are stacked into locals first and assigned to the job
        under the scheduler lock together with the DONE transition, so a
        concurrent :meth:`snapshot` never observes a partially written
        result.
        """
        request = job.request
        result_columns = None
        if request.columns is not None:
            result_columns = request.columns
        elif request.pairs is None:
            result_columns = tuple(range(request.n_contacts))
        result = None
        if result_columns is not None:
            result = np.column_stack([columns[c] for c in result_columns])
        pair_values = None
        if request.pairs is not None:
            pair_values = np.array([columns[j][i] for i, j in request.pairs])
        with self._cv:
            job.result_columns = result_columns
            job.result = result
            job.pair_values = pair_values
            self._finalize_locked(job, JobState.DONE)

    @staticmethod
    def _result_nbytes(job: Job) -> int:
        total = 0
        if job.result is not None:
            total += job.result.nbytes
        if job.pair_values is not None:
            total += job.pair_values.nbytes
        return total

    # reprolint: holds(_cv)
    def _finalize_locked(self, job: Job, status: str, journal: bool = True) -> None:
        """Move a job to a terminal state (caller holds ``_cv``).

        ``journal=False`` suppresses the journal's terminal mark — used at
        close so accepted-but-unserved jobs replay on the next start.
        """
        if job.status == JobState.RUNNING:
            self._running -= 1
        job.status = status
        job.finished_at = time.monotonic()
        job.done.set_result(status)
        self.metrics.record_outcome(status, latency_s=job.latency_s)
        if journal and self.persistence is not None:
            self.persistence.journal.record_terminal(
                job.job_id, status, attempts=job.attempts
            )
        # a retained job must not keep a finished stream's callback alive
        job.watcher = None
        self._terminal.append(job.job_id)
        self._retained_bytes += self._result_nbytes(job)
        while self._terminal and (
            len(self._terminal) > self.max_jobs_retained
            or self._retained_bytes > self.max_result_bytes_retained
        ):
            dropped_id = self._terminal.popleft()
            stale = self._jobs.pop(dropped_id, None)
            if stale is not None:
                self._retained_bytes -= self._result_nbytes(stale)
