"""The cluster leader: one front door, many worker hosts, zero local solves.

:class:`ClusterLeader` is deliberately thin: it is an ordinary
:class:`~repro.service.scheduler.Scheduler` behind an ordinary
:class:`~repro.service.aserver.AsyncExtractionServer`, with the scheduler's
``remote_solver`` hook plugged into route-and-RPC instead of a local engine
pool.  That one substitution buys the whole single-host feature set for the
cluster for free:

* **Coalescing** — concurrent client jobs over one fingerprint still merge
  into one union block; the worker sees a single solve RPC.
* **Result store** — columns any worker ever solved are served from the
  leader's store (and corpus, with persistence) with zero new RPCs.
* **Durability** — accepted jobs are journaled (fsync) before the ack,
  exactly as on a single host, so a leader crash loses no accepted work
  and replays it at restart — onto whatever hosts are alive then.
* **Failover** — a solve RPC that dies on a transport error marks its host
  dead in the :class:`~repro.cluster.registry.HostRegistry` and raises;
  the scheduler's existing :class:`~repro.service.scheduler.RetryPolicy`
  retries the batch, the
  :class:`~repro.cluster.routing.FingerprintRouter` re-places the now
  host-less pin on a survivor, and the per-fingerprint circuit breaker
  still bounds a substrate nothing can serve.  Columns that landed before
  the failure sit in the result store, so the retry re-solves only what
  the dead host still owed.

Cluster control endpoints (same bearer token as ``/v1/``; registered in
the server's route table, and a bad document raises
:class:`~repro.service.wire.WireFormatError`, answered 400):

========  ======================  =======================================
method    path                    body / behaviour
========  ======================  =======================================
POST      /v1/cluster/heartbeat   heartbeat document → ``{"schema_version",
                                  "lease_s"}``; admits, renews, moves or
                                  re-admits the host
GET       /v1/cluster/hosts       registry + router view (operators)
========  ======================  =======================================
"""

from __future__ import annotations

import threading

from ..faults import fault_hook
from ..service.aserver import AsyncExtractionServer, RouteRequest
from ..service.jobs import SCHEMA_VERSION, JobRequest
from ..service.scheduler import Scheduler
from ..service.wire import request_to_wire
from .protocol import completion_from_wire, heartbeat_from_wire, post_json
from .registry import HostRegistry
from .routing import FingerprintRouter

__all__ = ["ClusterLeader", "ClusterRPCError"]


class ClusterRPCError(RuntimeError):
    """A worker solve RPC failed at the transport level (host marked dead)."""


class ClusterLeader:
    """Leader process: registry + router + remote-solving scheduler + HTTP.

    ``scheduler_kwargs`` pass through to the leader's
    :class:`~repro.service.scheduler.Scheduler` (persistence, queue bounds,
    retry policy...).  ``max_solvers`` is meaningless here — the leader
    never builds an engine.  Because the scheduler gets a remote solver,
    groups pinned to different hosts solve concurrently.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_token: str | None = None,
        lease_s: float = 10.0,
        rpc_timeout_s: float = 600.0,
        **scheduler_kwargs,
    ) -> None:
        self.auth_token = auth_token
        self.rpc_timeout_s = float(rpc_timeout_s)
        self.registry = HostRegistry(lease_s=lease_s)
        self.router = FingerprintRouter(self.registry)
        #: solve RPCs run on up to 8 group threads at once
        self._rpc_lock = threading.Lock()
        self.rpc_calls = 0  # reprolint: guarded-by(_rpc_lock)
        self.rpc_failures = 0  # reprolint: guarded-by(_rpc_lock)
        scheduler_kwargs.setdefault("max_solvers", 1)
        self.scheduler = Scheduler(
            remote_solver=self._solve_remote,
            stats_extra=self._cluster_stats,
            **scheduler_kwargs,
        )
        self.server = AsyncExtractionServer(
            host=host,
            port=port,
            scheduler=self.scheduler,
            auth_token=auth_token,
        )
        self.server.add_json_route("POST", "/v1/cluster/heartbeat", self._heartbeat_route)
        self.server.add_json_route("GET", "/v1/cluster/hosts", self._hosts_route)

    # -------------------------------------------------------------- lifecycle
    @property
    def url(self) -> str:
        return self.server.url

    def start(self) -> "ClusterLeader":
        self.server.start()
        return self

    def close(self) -> None:
        self.server.close()
        self.scheduler.close()

    def __enter__(self) -> "ClusterLeader":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ remote path
    def _solve_remote(self, fingerprint: str, spec, columns: tuple[int, ...]):
        """Route one coalesced group's missing columns to its worker host.

        This runs inside the scheduler's
        :meth:`~repro.service.scheduler.Scheduler._solve_group` attempt, so
        raising here feeds straight into retry/backoff and the breaker.  A
        transport-level failure (refused, reset, timed out — all
        ``OSError``) evicts the host before raising, which is what makes
        the *retry* land on a survivor; an HTTP-level error (a 429 from a
        saturated worker, a 400) leaves membership alone — the host
        answered, so it is alive.
        """
        host = self.router.route(fingerprint)
        request = JobRequest(spec, columns=tuple(int(c) for c in columns))
        with self._rpc_lock:
            self.rpc_calls += 1
        try:
            fault_hook("rpc.send", worker_id=host.worker_id)
            answer = post_json(
                host.url + "/v1/cluster/solve",
                request_to_wire(request),
                timeout_s=self.rpc_timeout_s,
                auth_token=self.auth_token,
            )
        except OSError as exc:
            with self._rpc_lock:
                self.rpc_failures += 1
            self.registry.mark_dead(
                host.worker_id, f"solve RPC failed: {type(exc).__name__}: {exc}"
            )
            raise ClusterRPCError(
                f"solve RPC to {host.worker_id} ({host.url}) failed: {exc}"
            ) from exc
        completion = completion_from_wire(answer)
        if completion["columns"] != tuple(request.columns):
            raise ClusterRPCError(
                f"worker {completion['worker_id']} answered columns "
                f"{completion['columns']}, asked for {tuple(request.columns)}"
            )
        return completion["block"]

    def _cluster_stats(self) -> dict:
        with self._rpc_lock:
            rpc_calls, rpc_failures = self.rpc_calls, self.rpc_failures
        return {
            "cluster": {
                "registry": self.registry.info(),
                "router": self.router.info(),
                "rpc_calls": rpc_calls,
                "rpc_failures": rpc_failures,
            }
        }

    # -------------------------------------------------------- control routes
    def _heartbeat_route(self, request: RouteRequest) -> tuple[int, dict]:
        self.registry.heartbeat(**heartbeat_from_wire(request.doc))
        return 200, {"schema_version": SCHEMA_VERSION, "lease_s": self.registry.lease_s}

    def _hosts_route(self, request: RouteRequest) -> tuple[int, dict]:
        body = {"schema_version": SCHEMA_VERSION, **self.registry.info()}
        body["router"] = self.router.info()
        return 200, body
