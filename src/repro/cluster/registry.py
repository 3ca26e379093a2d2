"""Cluster membership: which worker hosts exist, and which are alive.

The leader's :class:`HostRegistry` is the single source of truth the router
consults.  A worker's heartbeat is its only membership message: one
:meth:`~HostRegistry.heartbeat` call admits a host the registry does not
hold live (new, lease-expired or marked dead), and renews one it does,
taking the URL, draining flag and queue depth the beat carries.  So a
worker joins with its first beat, rejoins after a leader restart or a
lapsed lease with its next one, and moves to a new URL by beating from
it.  Expiry is evaluated **lazily on read** — :meth:`live` sweeps overdue
hosts into the dead set as it answers, so no timer thread races the
dispatcher.  A host leaves the live set two ways:

* **lease expiry** — no heartbeat for ``lease_s`` seconds;
* **marked dead** — the leader's RPC layer hit a transport failure talking
  to it (a refused/reset/timed-out solve call is better evidence than any
  heartbeat, so it takes effect immediately).

A **draining** host stays live but takes no *new* fingerprint placements
(it keeps serving what it holds).  Admissions, URL moves, drain flips,
expiries and deaths land in a bounded event log (``info()["events"]``) for
operators; ordinary renewals do not.

Thread-safety: one lock over all state; every public method is safe to
call from the HTTP executor threads and the dispatcher concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

__all__ = ["HostRecord", "HostRegistry"]

#: membership events kept for operators (each: time, kind, worker_id, detail)
EVENT_LOG_LIMIT = 256


@dataclass
class HostRecord:
    """One worker host as the leader sees it."""

    worker_id: str
    url: str
    registered_at: float
    last_heartbeat: float
    lease_s: float
    draining: bool = False
    heartbeats: int = 0
    #: pending jobs on the host at its latest heartbeat (placement reads it)
    queue_depth: int = 0

    def expired(self, now: float) -> bool:
        return now - self.last_heartbeat > self.lease_s

    def info(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "url": self.url,
            "draining": self.draining,
            "heartbeats": self.heartbeats,
            "lease_s": self.lease_s,
            "age_s": max(time.monotonic() - self.registered_at, 0.0),
            "since_heartbeat_s": max(time.monotonic() - self.last_heartbeat, 0.0),
            "queue_depth": self.queue_depth,
        }


class HostRegistry:
    """Leader-side membership table with heartbeat leases (see module doc)."""

    def __init__(self, lease_s: float = 10.0) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be positive")
        self.lease_s = float(lease_s)
        self._lock = threading.Lock()
        # reprolint: guarded-by(_lock)
        self._hosts: dict[str, HostRecord] = {}
        #: dead worker_id -> reason (expired lease, transport failure)
        self._dead: dict[str, str] = {}  # reprolint: guarded-by(_lock)
        self._events: "deque[dict]" = deque(maxlen=EVENT_LOG_LIMIT)  # reprolint: guarded-by(_lock)
        self.registrations = 0  # reprolint: guarded-by(_lock)
        self.expirations = 0  # reprolint: guarded-by(_lock)
        self.deaths = 0  # reprolint: guarded-by(_lock)

    # reprolint: holds(_lock)
    def _log_locked(self, kind: str, worker_id: str, detail: str = "") -> None:
        self._events.append(
            {
                "t": time.time(),
                "kind": kind,
                "worker_id": worker_id,
                "detail": detail,
            }
        )

    # reprolint: holds(_lock)
    def _sweep_locked(self, now: float) -> None:
        """Move lease-expired hosts to the dead set (lazy, on every read)."""
        for worker_id in [w for w, h in self._hosts.items() if h.expired(now)]:
            host = self._hosts.pop(worker_id)
            self._dead[worker_id] = "lease expired"
            self.expirations += 1
            self._log_locked(
                "expired",
                worker_id,
                f"no heartbeat for {now - host.last_heartbeat:.1f}s "
                f"(lease {host.lease_s:g}s)",
            )

    # ------------------------------------------------------------- membership
    def heartbeat(
        self, worker_id: str, url: str, draining: bool = False, queue_depth: int = 0
    ) -> HostRecord:
        """Admit or renew one host from its heartbeat; returns its record.

        A host not held live — never seen, lease expired or marked dead —
        is admitted with a fresh record (counted in ``registrations``); a
        live one has its lease renewed and takes the beat's URL, draining
        flag and queue depth.
        """
        url = url.rstrip("/")
        now = time.monotonic()
        with self._lock:
            self._sweep_locked(now)
            record = self._hosts.get(worker_id)
            if record is None:
                self._dead.pop(worker_id, None)
                record = self._hosts[worker_id] = HostRecord(
                    worker_id=worker_id,
                    url=url,
                    registered_at=now,
                    last_heartbeat=now,
                    lease_s=self.lease_s,
                )
                self.registrations += 1
                self._log_locked("registered", worker_id, url)
            else:
                record.last_heartbeat = now
                if record.url != url:
                    # a worker restarted on a new port keeps its identity
                    self._log_locked("moved", worker_id, f"{record.url} -> {url}")
                    record.url = url
                if record.draining != bool(draining):
                    self._log_locked("draining" if draining else "undraining", worker_id)
            record.draining = bool(draining)
            record.queue_depth = int(queue_depth)
            record.heartbeats += 1
            return record

    def mark_dead(self, worker_id: str, reason: str) -> bool:
        """Evict one host immediately (the RPC layer saw it fail)."""
        with self._lock:
            host = self._hosts.pop(worker_id, None)
            if host is None:
                return False
            self._dead[worker_id] = reason
            self.deaths += 1
            self._log_locked("dead", worker_id, reason)
            return True

    # ---------------------------------------------------------------- queries
    def live(self, now: float | None = None) -> list[HostRecord]:
        """Every host currently inside its lease (sweeps expired ones)."""
        now = time.monotonic() if now is None else now
        with self._lock:
            self._sweep_locked(now)
            return list(self._hosts.values())

    def get(self, worker_id: str) -> HostRecord | None:
        with self._lock:
            self._sweep_locked(time.monotonic())
            return self._hosts.get(worker_id)

    def dead(self) -> dict[str, str]:
        """``{worker_id: reason}`` of hosts that left involuntarily."""
        with self._lock:
            return dict(self._dead)

    def info(self) -> dict:
        """Operator view: hosts, dead set, counters, recent events."""
        hosts = self.live()
        with self._lock:
            return {
                "hosts": [h.info() for h in hosts],
                "dead": dict(self._dead),
                "registrations": self.registrations,
                "expirations": self.expirations,
                "deaths": self.deaths,
                "events": list(self._events),
            }
