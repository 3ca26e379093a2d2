"""Fingerprint-affinity routing: which worker host owns which substrate.

The whole economics of the cluster hinge on one invariant: a substrate's
expensive state — its factorisation, its warm engine, its slice of the
result corpus — should be built on **exactly one host** and stay there.
The :class:`FingerprintRouter` enforces that with one placement rule and
sticky pins:

* **Placement.**  An unpinned fingerprint goes to the live, non-draining
  host that owns the fewest pins, then to the one reporting the shortest
  queue, then to the lowest blake2b hash of ``"digest@worker_id"``.
  Because pins are sticky, placement is the one moment load can be
  balanced; the hash only breaks ties, spreading them over hosts without
  always favouring one.  There is no hash ring.
* **Sticky pins.**  The first placement of a fingerprint is remembered.
  A host joining does *not* move a pinned fingerprint — its factor is
  already warm where it is; migration would pay a rebuild to save nothing.
  A draining host keeps its pins too.  Pins move only when their host
  leaves the live set (death, lease expiry), which is the failover path —
  the ``reroutes`` counter counts exactly those.

The router holds no locks of its own beyond one mutex around the pin
table; it re-reads the registry's live set on every call, so membership
changes take effect on the next route.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter

from .registry import HostRecord, HostRegistry

__all__ = ["FingerprintRouter", "NoWorkersError"]


class NoWorkersError(RuntimeError):
    """No live worker host can take this group (empty or fully draining)."""


def _tie_break(digest: str, host: HostRecord) -> bytes:
    return hashlib.blake2b(f"{digest}@{host.worker_id}".encode(), digest_size=8).digest()


class FingerprintRouter:
    """Sticky least-loaded router over a :class:`HostRegistry`."""

    def __init__(self, registry: HostRegistry) -> None:
        self.registry = registry
        self._lock = threading.Lock()
        #: fingerprint digest -> worker_id of the owning host
        self._pins: dict[str, str] = {}  # reprolint: guarded-by(_lock)
        self.placements = 0  # reprolint: guarded-by(_lock)
        #: pins moved because their host left the live set (failovers)
        self.reroutes = 0  # reprolint: guarded-by(_lock)

    def route(self, fingerprint: str) -> HostRecord:
        """The host that owns this fingerprint, placing or re-placing it.

        ``fingerprint`` is the
        :attr:`~repro.service.jobs.JobRequest.fingerprint` digest, which is
        the pin key as is.  Raises :class:`NoWorkersError` when no live
        host can take it.  A pinned host that is merely *draining* keeps
        its pinned fingerprints (it serves what it holds); only leaving the
        live set moves them.
        """
        live = self.registry.live()
        if not live:
            raise NoWorkersError("no live worker hosts registered")
        by_id = {host.worker_id: host for host in live}
        with self._lock:
            pinned = self._pins.get(fingerprint)
            if pinned in by_id:
                return by_id[pinned]
            candidates = [host for host in live if not host.draining]
            if not candidates:
                raise NoWorkersError(
                    f"all {len(live)} live worker hosts are draining"
                )
            pins_owned = Counter(self._pins.values())
            chosen = min(
                candidates,
                key=lambda h: (
                    pins_owned[h.worker_id],
                    h.queue_depth,
                    _tie_break(fingerprint, h),
                ),
            )
            if pinned is not None:
                # the pin's host left the live set: this is a failover
                self.reroutes += 1
            self.placements += 1
            self._pins[fingerprint] = chosen.worker_id
            return chosen

    def pins(self) -> dict[str, str]:
        """``{fingerprint digest: worker_id}`` of every current pin."""
        with self._lock:
            return dict(self._pins)

    def info(self) -> dict:
        with self._lock:
            return {
                "pins": len(self._pins),
                "pins_per_host": dict(Counter(self._pins.values())),
                "placements": self.placements,
                "reroutes": self.reroutes,
            }
