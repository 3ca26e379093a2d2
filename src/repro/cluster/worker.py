"""The cluster worker: today's single-host stack behind a solve RPC.

A :class:`ClusterWorker` wraps the unmodified single-host pipeline — a
:class:`~repro.service.scheduler.Scheduler` over the engine pool, result
store, and (optionally) persistence — in an
:class:`~repro.service.aserver.AsyncExtractionServer` that adds exactly one
route: ``POST /v1/cluster/solve`` (see
:func:`~repro.cluster.protocol.serve_solve`).  The worker keeps its own
``/v1/`` surface too, so an operator can hit ``/v1/stats`` or
``/v1/healthz`` on any host directly.

Membership is the worker's job: it registers with the leader at start
(retrying until the leader answers — start order is free), then heartbeats
from a daemon thread every ``heartbeat_s`` seconds.  A heartbeat answer of
``known: false`` means the leader does not hold this worker live (leader
restart, or a lease that expired while this process was wedged) — the
worker simply re-registers and carries on; all its warm state is still
here, and re-registration makes it routable again.  The heartbeat carries
the scheduler's load and warm-state report
(:func:`~repro.cluster.protocol.heartbeat_doc`), which feeds the leader's
load-aware placement.

``drain()`` flips the flag carried by every subsequent heartbeat: the
leader stops placing *new* fingerprints here while pinned ones keep being
served — the graceful way to retire a host.
"""

from __future__ import annotations

import threading
import uuid

from ..faults import fault_hook
from ..service.aserver import AsyncExtractionServer
from ..service.scheduler import Scheduler
from .protocol import heartbeat_doc, post_json, register_doc, serve_solve

__all__ = ["ClusterWorker"]

#: registration attempts at start (the leader may still be booting), and
#: the backoff step between them (attempt ``i`` waits ``i`` steps)
_REGISTER_ATTEMPTS = 20
_REGISTER_BACKOFF_S = 0.25


class ClusterWorker:
    """One worker host: scheduler + HTTP server + membership loop.

    ``scheduler_kwargs`` pass through to this host's
    :class:`~repro.service.scheduler.Scheduler` (store budget,
    persistence, ...).
    """

    def __init__(
        self,
        leader_url: str,
        host: str = "127.0.0.1",
        port: int = 0,
        advertise_host: str | None = None,
        worker_id: str | None = None,
        auth_token: str | None = None,
        heartbeat_s: float = 2.0,
        **scheduler_kwargs,
    ) -> None:
        self.leader_url = leader_url.rstrip("/")
        self.worker_id = worker_id or f"worker-{uuid.uuid4().hex[:8]}"
        self.auth_token = auth_token
        self.heartbeat_s = float(heartbeat_s)
        self._advertise_host = advertise_host
        self.draining = False
        self.heartbeats_sent = 0
        self.heartbeat_errors = 0
        self.reregistrations = 0
        self.scheduler = Scheduler(**scheduler_kwargs)
        self.server = AsyncExtractionServer(
            host=host,
            port=port,
            scheduler=self.scheduler,
            auth_token=auth_token,
        )
        self.server.add_json_route(
            "POST",
            "/v1/cluster/solve",
            lambda request: serve_solve(self.scheduler, request.doc, self.worker_id),
        )
        self._stop = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None

    # -------------------------------------------------------------- lifecycle
    @property
    def url(self) -> str:
        """The base URL this worker advertises to the leader."""
        url = self.server.url
        if self._advertise_host is not None:
            scheme, rest = url.split("://", 1)
            _, port = rest.rsplit(":", 1)
            url = f"{scheme}://{self._advertise_host}:{port}"
        return url

    def start(self) -> "ClusterWorker":
        self.server.start()
        self._register(attempts=_REGISTER_ATTEMPTS)
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop,
            name=f"heartbeat-{self.worker_id}",
            daemon=True,
        )
        self._heartbeat_thread.start()
        return self

    def close(self) -> None:
        self._stop.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=self.heartbeat_s + 5.0)
            self._heartbeat_thread = None
        self.server.close()
        self.scheduler.close()

    def __enter__(self) -> "ClusterWorker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def drain(self, draining: bool = True) -> None:
        """Stop taking new fingerprints; announce it on the next heartbeat."""
        self.draining = bool(draining)
        try:
            self._send_heartbeat()
        except OSError:
            pass  # the regular loop will carry the flag once the leader is back

    # -------------------------------------------------------------- membership
    def _register(self, attempts: int) -> None:
        """Announce this worker to the leader, retrying while it boots."""
        last_error: Exception | None = None
        for attempt in range(attempts):
            if self._stop.is_set():
                return
            try:
                post_json(
                    self.leader_url + "/v1/cluster/register",
                    register_doc(self.worker_id, self.url),
                    timeout_s=10.0,
                    auth_token=self.auth_token,
                )
                return
            except OSError as exc:
                last_error = exc
                self._stop.wait(_REGISTER_BACKOFF_S * (attempt + 1))
        raise RuntimeError(
            f"worker {self.worker_id} could not register with leader at "
            f"{self.leader_url} after {attempts} attempts: {last_error}"
        )

    def _send_heartbeat(self) -> None:
        """One heartbeat round trip; re-registers when the leader forgot us."""
        answer = post_json(
            self.leader_url + "/v1/cluster/heartbeat",
            heartbeat_doc(self.worker_id, self.scheduler, draining=self.draining),
            timeout_s=10.0,
            auth_token=self.auth_token,
        )
        self.heartbeats_sent += 1
        if not answer.get("known", True):
            self.reregistrations += 1
            self._register(attempts=1)

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            if fault_hook("worker.heartbeat", worker_id=self.worker_id):
                continue  # injected drop: skip this beat, let the lease decay
            try:
                self._send_heartbeat()
            except (OSError, RuntimeError):
                # leader briefly down or re-registration still failing: keep
                # beating — membership recovers as soon as the leader answers
                self.heartbeat_errors += 1
