"""Aggregated operational metrics of the extraction service.

One :class:`ServiceMetrics` instance rides along with each
:class:`~repro.service.scheduler.Scheduler` and folds together everything an
operator (or the ``/v1/stats`` endpoint) wants in one snapshot:

* job lifecycle counters (submitted / done / failed / cancelled / timed out)
  and end-to-end latency percentiles over a bounded recent window;
* coalescing counters — how many batches ran, how many jobs shared a batch,
  and where the columns came from (fresh solves vs. the
  :class:`~repro.service.result_store.ResultStore`);
* the merged :class:`~repro.substrate.solver_base.SolveStats` of every solve
  the scheduler ran (iterative/direct split, factor rebuilds), via
  :meth:`~repro.substrate.solver_base.SolveStats.merge`;
* the process-wide factor-cache counters
  (:func:`~repro.substrate.factor_cache.factor_cache_info`).

All methods are thread-safe; the scheduler's dispatcher, the HTTP handler
threads and test code may record and snapshot concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from ..substrate.factor_cache import factor_cache_info
from ..substrate.solver_base import SolveStats
from .jobs import SCHEMA_VERSION

__all__ = ["ServiceMetrics", "latency_percentiles"]

#: latency window length: large enough for stable percentiles, small enough
#: that a long-lived service never grows without bound
DEFAULT_WINDOW = 1024


def latency_percentiles(
    latencies: "deque[float] | list[float]",
    percentiles: tuple[float, ...] = (50.0, 90.0, 99.0),
) -> dict[str, float | None]:
    """``{"p50": ..., "p90": ..., "p99": ...}`` over the recent window."""
    out: dict[str, float | None] = {}
    values = np.asarray(latencies, dtype=float)
    for p in percentiles:
        key = f"p{p:g}"
        out[key] = float(np.percentile(values, p)) if values.size else None
    return out


class ServiceMetrics:
    """Thread-safe counters + latency window for one scheduler."""

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._lock = threading.RLock()
        #: write-once at construction, read lock-free by uptime consumers
        self.started_at = time.monotonic()
        self.jobs_submitted = 0  # reprolint: guarded-by(_lock)
        self.jobs_done = 0  # reprolint: guarded-by(_lock)
        self.jobs_failed = 0  # reprolint: guarded-by(_lock)
        self.jobs_cancelled = 0  # reprolint: guarded-by(_lock)
        self.jobs_timeout = 0  # reprolint: guarded-by(_lock)
        #: queued jobs displaced by admission control (terminal "shed" state)
        self.jobs_shed = 0  # reprolint: guarded-by(_lock)
        #: submissions refused outright by admission control (HTTP 429)
        self.submits_rejected = 0  # reprolint: guarded-by(_lock)
        #: journaled jobs re-queued at startup
        self.jobs_replayed = 0  # reprolint: guarded-by(_lock)
        #: failed batch attempts that were retried (backoff) instead of failed
        self.retries = 0  # reprolint: guarded-by(_lock)
        #: circuit-breaker trips (closed/half-open -> open transitions)
        self.breaker_open = 0  # reprolint: guarded-by(_lock)
        #: coalescing bookkeeping
        self.batches = 0  # reprolint: guarded-by(_lock)
        #: jobs served across all batches
        self.batch_jobs = 0  # reprolint: guarded-by(_lock)
        #: jobs that shared a batch with at least one other
        self.coalesced_jobs = 0  # reprolint: guarded-by(_lock)
        #: union size per batch, summed
        self.columns_requested = 0  # reprolint: guarded-by(_lock)
        #: columns that actually hit the solver
        self.columns_solved = 0  # reprolint: guarded-by(_lock)
        #: columns served by the ResultStore
        self.columns_from_store = 0  # reprolint: guarded-by(_lock)
        #: front-door bookkeeping (the async ``/v1`` server)
        #: NDJSON streaming responses opened
        self.streams_opened = 0  # reprolint: guarded-by(_lock)
        #: events written across all streams (submitted/columns/done/...)
        self.stream_events = 0  # reprolint: guarded-by(_lock)
        #: columns delivered through streams before their job completed
        self.stream_columns = 0  # reprolint: guarded-by(_lock)
        #: pair queries accepted by the HTTP micro-batcher
        self.microbatch_queries = 0  # reprolint: guarded-by(_lock)
        #: coalesced submits those queries collapsed into (<= queries)
        self.microbatch_submits = 0  # reprolint: guarded-by(_lock)
        #: merged solve statistics of everything the scheduler ran
        self.solve_stats = SolveStats()  # reprolint: guarded-by(_lock)
        # reprolint: guarded-by(_lock)
        self._latencies: "deque[float]" = deque(maxlen=int(window))

    # ------------------------------------------------------------- recording
    def record_submit(self, n: int = 1) -> None:
        with self._lock:
            self.jobs_submitted += n

    def record_replay(self, n: int = 1) -> None:
        """Count journaled jobs replayed into the queue at startup."""
        with self._lock:
            self.jobs_replayed += n

    def record_outcome(self, status: str, latency_s: float | None = None) -> None:
        """Count one terminal job transition and its end-to-end latency."""
        with self._lock:
            if status == "done":
                self.jobs_done += 1
            elif status == "failed":
                self.jobs_failed += 1
            elif status == "cancelled":
                self.jobs_cancelled += 1
            elif status == "timeout":
                self.jobs_timeout += 1
            elif status == "shed":
                self.jobs_shed += 1
            if latency_s is not None:
                self._latencies.append(float(latency_s))

    def record_rejected_submit(self, n: int = 1) -> None:
        """Count a submission refused by admission control (queue saturated)."""
        with self._lock:
            self.submits_rejected += n

    def record_retry(self, n: int = 1) -> None:
        """Count a failed batch attempt that will be retried after backoff."""
        with self._lock:
            self.retries += n

    def record_breaker_open(self, n: int = 1) -> None:
        """Count one circuit-breaker trip (a fingerprint going open)."""
        with self._lock:
            self.breaker_open += n

    def recent_p50_s(self) -> float | None:
        """Median end-to-end latency over the recent window (Retry-After hint)."""
        with self._lock:
            if not self._latencies:
                return None
            values = list(self._latencies)
        return float(np.percentile(np.asarray(values, dtype=float), 50.0))

    def fault_counters(self) -> dict:
        """The resilience counters alone (the ``/v1/healthz`` failure summary)."""
        with self._lock:
            return {
                "retries": self.retries,
                "shed": self.jobs_shed + self.submits_rejected,
                "submits_rejected": self.submits_rejected,
                "breaker_open": self.breaker_open,
            }

    def record_stream_opened(self, n: int = 1) -> None:
        """Count one NDJSON streaming response starting."""
        with self._lock:
            self.streams_opened += n

    def record_stream_event(self, n_columns: int = 0) -> None:
        """Count one streamed event (and the columns it delivered, if any)."""
        with self._lock:
            self.stream_events += 1
            self.stream_columns += n_columns

    def record_microbatch(self, n_queries: int, n_submits: int = 1) -> None:
        """Account one micro-batch flush: ``n_queries`` collapsed into
        ``n_submits`` scheduler submissions (the benchmark pins the ratio)."""
        with self._lock:
            self.microbatch_queries += n_queries
            self.microbatch_submits += n_submits

    def record_batch(
        self,
        n_jobs: int,
        n_columns_requested: int,
        n_columns_solved: int,
        n_columns_from_store: int,
        stats_delta: SolveStats | None = None,
    ) -> None:
        """Account one coalesced solve batch."""
        with self._lock:
            self.batches += 1
            self.batch_jobs += n_jobs
            if n_jobs > 1:
                self.coalesced_jobs += n_jobs
            self.columns_requested += n_columns_requested
            self.columns_solved += n_columns_solved
            self.columns_from_store += n_columns_from_store
            if stats_delta is not None:
                self.solve_stats.merge(stats_delta)
                # merge() extends the per-solve iteration list; a service
                # runs for months, so keep only a bounded recent history
                # (the aggregate totals behind mean_iterations are exact)
                del self.solve_stats.iterations_per_solve[: -8 * DEFAULT_WINDOW]

    # ------------------------------------------------------------- snapshots
    def snapshot(
        self,
        queue_depth: int | None = None,
        store_info: dict | None = None,
        extra: dict | None = None,
        running: int | None = None,
    ) -> dict:
        """One JSON-compatible view of every counter this service tracks.

        ``running`` is the scheduler's live RUNNING-job count; ``pending``
        subtracts it, so the two states are no longer conflated (a job mid-
        solve used to be reported as pending).
        """
        n_running = int(running or 0)
        with self._lock:
            doc: dict = {
                "schema_version": SCHEMA_VERSION,
                "uptime_s": time.monotonic() - self.started_at,
                "jobs": {
                    "submitted": self.jobs_submitted,
                    "done": self.jobs_done,
                    "failed": self.jobs_failed,
                    "cancelled": self.jobs_cancelled,
                    "timeout": self.jobs_timeout,
                    "shed": self.jobs_shed,
                    "replayed": self.jobs_replayed,
                    "running": n_running,
                    "pending": (
                        self.jobs_submitted
                        - self.jobs_done
                        - self.jobs_failed
                        - self.jobs_cancelled
                        - self.jobs_timeout
                        - self.jobs_shed
                        - n_running
                    ),
                },
                "faults": {
                    "retries": self.retries,
                    "shed": self.jobs_shed + self.submits_rejected,
                    "submits_rejected": self.submits_rejected,
                    "breaker_open": self.breaker_open,
                },
                "coalescing": {
                    "batches": self.batches,
                    "batch_jobs": self.batch_jobs,
                    "coalesced_jobs": self.coalesced_jobs,
                    "columns_requested": self.columns_requested,
                    "columns_solved": self.columns_solved,
                    "columns_from_store": self.columns_from_store,
                },
                "frontdoor": {
                    "streams_opened": self.streams_opened,
                    "stream_events": self.stream_events,
                    "stream_columns": self.stream_columns,
                    "microbatch_queries": self.microbatch_queries,
                    "microbatch_submits": self.microbatch_submits,
                },
                "latency_s": latency_percentiles(self._latencies),
                "solve_stats": self.solve_stats.as_dict(),
            }
        doc["factor_cache"] = factor_cache_info()
        if queue_depth is not None:
            doc["queue_depth"] = int(queue_depth)
        if store_info is not None:
            doc["result_store"] = store_info
        if extra:
            doc.update(extra)
        return doc
