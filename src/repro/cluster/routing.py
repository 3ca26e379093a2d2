"""Fingerprint-affinity routing: which worker host owns which substrate.

The whole economics of the cluster hinge on one invariant: a substrate's
expensive state — its factorisation, its warm engine, its slice of the
result corpus — should be built on **exactly one host** and stay there.
The :class:`FingerprintRouter` enforces that with three layers:

* **Consistent hashing.**  Each live host contributes 64 points
  on a hash ring (blake2b of ``"worker_id#i"``); a fingerprint lands on
  the first point clockwise from its own digest.  Hosts joining or
  leaving move only the fingerprints that must move.
* **Sticky pins.**  The first routing decision for a fingerprint is
  remembered.  A later ring change (a new host joining) does *not* move a
  pinned fingerprint — its factor is already warm where it is; migration
  would pay a rebuild to save nothing.  Pins move only when their host
  leaves the live set (death, lease expiry), which is the failover path —
  the ``reroutes`` counter counts exactly those.
* **Balance-aware placement.**  For a fingerprint being placed *fresh*,
  the ring's candidate is overruled when it is already loaded: when it
  owns more pins than the least-pinned candidate (bounded-load consistent
  hashing with the tightest bound; because pins are sticky, placement is
  the one moment load balancing can happen, and with a handful of
  fingerprints the raw ring can legitimately land them all on one host),
  or when its reported queue depth exceeds the least-loaded live host's
  by more than 4.  A cold substrate has no warmth to preserve, so it may
  as well start on an underused host.  Draining hosts never take new
  pins.

The router holds no locks of its own beyond one mutex around the pin
table; it re-reads the registry's live set on every call, so membership
changes take effect on the next route.
"""

from __future__ import annotations

import bisect
import hashlib
import threading

from .registry import HostRecord, HostRegistry

__all__ = ["FingerprintRouter", "NoWorkersError"]

#: hash-ring points per live host
_REPLICAS = 64
#: queue-depth lead over the least-loaded host that overrules the ring
_LOAD_SKEW = 4


class NoWorkersError(RuntimeError):
    """No live worker host can take this group (empty or fully draining)."""


def _ring_hash(key: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(key.encode(), digest_size=8).digest(), "big"
    )


class FingerprintRouter:
    """Sticky consistent-hash router over a :class:`HostRegistry`."""

    def __init__(self, registry: HostRegistry) -> None:
        self.registry = registry
        self._lock = threading.Lock()
        #: fingerprint digest -> worker_id of the owning host
        self._pins: dict[str, str] = {}  # reprolint: guarded-by(_lock)
        #: cached ring for one membership snapshot
        self._ring_members: frozenset[str] = frozenset()  # reprolint: guarded-by(_lock)
        self._ring: list[tuple[int, str]] = []  # reprolint: guarded-by(_lock)
        self.placements = 0  # reprolint: guarded-by(_lock)
        #: pins moved because their host left the live set (failovers)
        self.reroutes = 0  # reprolint: guarded-by(_lock)
        #: ring candidates overruled by load-aware placement
        self.load_overrides = 0  # reprolint: guarded-by(_lock)

    # reprolint: holds(_lock)
    def _ring_for_locked(self, worker_ids: frozenset[str]) -> list[tuple[int, str]]:
        if worker_ids != self._ring_members:
            points = [
                (_ring_hash(f"{worker_id}#{i}"), worker_id)
                for worker_id in sorted(worker_ids)
                for i in range(_REPLICAS)
            ]
            points.sort()
            self._ring_members = worker_ids
            self._ring = points
        return self._ring

    # reprolint: holds(_lock)
    def _place_locked(self, digest: str, candidates: list[HostRecord]) -> HostRecord:
        """Pick a host for an unpinned fingerprint (ring + balance override)."""
        by_id = {host.worker_id: host for host in candidates}
        ring = self._ring_for_locked(frozenset(by_id))
        point = _ring_hash(digest)
        index = bisect.bisect_right(ring, (point, "")) % len(ring)
        chosen = by_id[ring[index][1]]
        pin_counts = dict.fromkeys(by_id, 0)
        for owner in self._pins.values():
            if owner in pin_counts:
                pin_counts[owner] += 1
        least_pins = min(pin_counts.values())
        least_queue = min(host.queue_depth for host in candidates)
        if (
            pin_counts[chosen.worker_id] > least_pins
            or chosen.queue_depth > least_queue + _LOAD_SKEW
        ):
            self.load_overrides += 1
            # among underused hosts, the digest/host hash keeps the pick
            # deterministic without always favouring one host on ties
            chosen = min(
                candidates,
                key=lambda h: (
                    pin_counts[h.worker_id],
                    h.queue_depth,
                    _ring_hash(f"{digest}@{h.worker_id}"),
                ),
            )
        return chosen

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
            if pinned is not None and pinned in by_id:
                return by_id[pinned]
            candidates = [host for host in live if not host.draining]
            if not candidates:
                raise NoWorkersError(
                    f"all {len(live)} live worker hosts are draining"
                )
            chosen = self._place_locked(fingerprint, candidates)
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
            owners: dict[str, int] = {}
            for worker_id in self._pins.values():
                owners[worker_id] = owners.get(worker_id, 0) + 1
            return {
                "pins": len(self._pins),
                "pins_per_host": owners,
                "placements": self.placements,
                "reroutes": self.reroutes,
                "load_overrides": self.load_overrides,
            }
