"""Long-running extraction service: scheduler, result store, HTTP front end.

The substrate engines (batched ``solve_many``, adaptive dispatch, the
factor cache) make a *single* extraction fast; this package amortises work
**across requests**.  A persistent
:class:`~repro.service.scheduler.Scheduler` owns the expensive state — warm
solver engines with their factors built, solved in process, and a
:class:`~repro.service.result_store.ResultStore` of solved ``G`` columns —
and serves many small :class:`~repro.service.jobs.JobRequest` jobs against
it, coalescing concurrent requests over the same substrate fingerprint into
shared ``solve_many`` blocks.  The HTTP front door is **schema-first**:
:mod:`~repro.service.wire` defines a declarative JSON wire protocol (layout,
profile, options and arrays as plain data — no pickle, fingerprint-exact
round trips), :mod:`~repro.service.aserver` — the one HTTP server — serves
it from one asyncio event loop under ``/v1/`` with chunked-NDJSON streaming
(columns reach the client as their coalesced group's solve lands, before
the job completes) and HTTP-layer micro-batching of small pair queries, and
:mod:`~repro.service.client` is the blocking client with typed exceptions
decoded from the single error envelope.  :mod:`~repro.service.metrics`
aggregates the operational counters behind ``/v1/stats``.
:mod:`~repro.service.persistence` makes the amortised state durable: point
the scheduler (or ``python -m repro.service --state-dir``) at a directory
and the solved-column corpus, factor artifacts and accepted-job journal
(the same ``/v1`` request documents, never pickle) survive restarts — a
warm restart serves the previous corpus with zero new solves and zero
factor rebuilds.

The service is also fault-tolerant: batches that fail are retried with
exponential backoff (:class:`~repro.service.scheduler.RetryPolicy`),
repeatedly failing substrates trip a
per-fingerprint :class:`~repro.service.scheduler.CircuitBreaker`, and a
bounded queue sheds the lowest-priority work under overload
(:class:`~repro.service.jobs.QueueSaturatedError` / HTTP 429).  Every
failure mode is reproducible on demand through :mod:`repro.faults`.

Quickstart::

    from repro.service import AsyncExtractionServer, JobRequest, ServiceClient
    from repro.substrate.parallel import SolverSpec

    with AsyncExtractionServer() as server:      # scheduler + HTTP, ephemeral port
        with ServiceClient(server.url) as client:
            spec = SolverSpec.bem(layout, profile)
            g_cols = client.extract(JobRequest(spec, columns=(0, 5, 9)))
            for event in client.stream(JobRequest(spec, columns=(0, 1))):
                ...                              # columns arrive as groups land

or in-process, without HTTP::

    from repro.service import Scheduler
    with Scheduler() as scheduler:
        job_id = scheduler.submit(JobRequest(spec, columns=(0, 5, 9)))
        job = scheduler.result(job_id, wait_s=60.0)
"""

from .jobs import (
    SCHEMA_VERSION,
    Job,
    JobExpiredError,
    JobRequest,
    JobState,
    QueueSaturatedError,
)
from .metrics import ServiceMetrics
from .persistence import JobJournal, ServicePersistence, SqliteResultBackend
from .result_store import ResultStore
from .scheduler import CircuitBreaker, ExtractorPool, RetryPolicy, Scheduler
from .aserver import AsyncExtractionServer
from .client import ServiceClient
from .wire import (
    BadRequestError,
    ServiceError,
    ServiceUnavailableError,
    UnauthorizedError,
    UnknownJobError,
    WireFormatError,
    request_from_wire,
    request_to_wire,
    spec_from_wire,
    spec_to_wire,
)

__all__ = [
    "SCHEMA_VERSION",
    "Job",
    "JobExpiredError",
    "JobRequest",
    "JobState",
    "ServiceMetrics",
    "JobJournal",
    "ServicePersistence",
    "SqliteResultBackend",
    "ResultStore",
    "ExtractorPool",
    "Scheduler",
    "RetryPolicy",
    "CircuitBreaker",
    "QueueSaturatedError",
    "AsyncExtractionServer",
    "ServiceClient",
    "ServiceError",
    "BadRequestError",
    "UnknownJobError",
    "ServiceUnavailableError",
    "UnauthorizedError",
    "WireFormatError",
    "request_to_wire",
    "request_from_wire",
    "spec_to_wire",
    "spec_from_wire",
]
