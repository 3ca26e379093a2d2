"""Memory-budgeted store of solved conductance columns.

The service's cheapest solve is the one it never runs: every column of ``G``
the scheduler solves is parked here under ``(substrate fingerprint, column
index)``, and later requests over the same substrate — repeated conductance
queries, overlapping column sets from different clients, individual
``(row, column)`` pair lookups — are served straight from the store with
**zero** new black-box solves.

The fingerprint is :attr:`SolverSpec.fingerprint
<repro.substrate.parallel.SolverSpec.fingerprint>`, a 32-hex-character
digest of the substrate and solver configuration.  Every get and put hashes
the key, so it is a short string (which caches its own hash) rather than
the identity tuple behind it; the same string keys the sqlite corpus and
the ``/v1/stats`` ledger.

The columns live in a :class:`~repro.lru.BoundedLRU` measured in bytes and
grouped by fingerprint (keyed per column, so partial overlaps hit): its
eviction, oversize rule (a column larger than the whole budget is served
but never stored) and per-fingerprint occupancy are the ones
``/v1/stats`` reports.  What is the store's own: stored columns are private
read-only copies — many jobs may hold views of the same array — and
:meth:`ResultStore.get_many` looks a job's columns up in one call.

With a persistent backend attached (the
:class:`~repro.service.persistence.SqliteResultBackend` of a service state
dir) as the LRU's tier, a RAM miss consults the corpus on disk before
reporting a miss, and every ``put`` lands on disk as well, so LRU eviction
never loses a solved column and a restarted service serves the whole
corpus with zero new solves.  A failing backend call is counted in
``backend_errors`` and the column is served from RAM.

Environment knob: ``REPRO_RESULT_STORE_BYTES`` overrides the default budget
(256 MiB) used by schedulers that do not pass an explicit store.
"""

from __future__ import annotations

import numpy as np

from ..lru import BoundedLRU, env_bytes

__all__ = ["ResultStore", "DEFAULT_STORE_BYTES", "default_store_bytes"]

DEFAULT_STORE_BYTES = 256 * 1024 * 1024


def default_store_bytes() -> int:
    """Store budget in bytes (env: ``REPRO_RESULT_STORE_BYTES``; a malformed
    or negative value warns and keeps the default)."""
    return env_bytes("REPRO_RESULT_STORE_BYTES", DEFAULT_STORE_BYTES)


def _nbytes(values: np.ndarray) -> int:
    return values.nbytes


def _fingerprint_of(key: tuple[str, int]) -> str:
    return key[0]


class ResultStore:
    """LRU cache of solved ``G`` columns keyed ``(fingerprint, column)``.

    ``backend`` (or :meth:`attach_backend`) plugs in a persistent corpus —
    anything with ``save/load/contains`` over ``(fingerprint, column)``
    keys and ``delete(fingerprint)``, in practice the sqlite backend of a
    service state dir.  Without one the store is purely in memory.
    """

    def __init__(self, max_bytes: int | None = None, backend=None) -> None:
        budget = max_bytes if max_bytes is not None else default_store_bytes()
        self._columns = BoundedLRU(budget, size_of=_nbytes, group_of=_fingerprint_of, tier=backend)

    def attach_backend(self, backend) -> None:
        """Attach (or detach, with ``None``) the persistent column corpus."""
        self._columns.tier = backend

    # ------------------------------------------------------------------ access
    def get(self, fingerprint: str, column: int) -> np.ndarray | None:
        """One stored column (refreshing recency), or ``None``; counts hit/miss.

        A column read through from the backend counts as a (disk) hit, not
        a miss, because no solve is needed.
        """
        return self._columns.get((fingerprint, int(column)))

    def get_many(
        self, fingerprint: str, columns: tuple[int, ...]
    ) -> dict[int, np.ndarray]:
        """The subset of ``columns`` present in the store (one hit/miss each)."""
        found: dict[int, np.ndarray] = {}
        for column in columns:
            value = self.get(fingerprint, column)
            if value is not None:
                found[column] = value
        return found

    def put(self, fingerprint: str, column: int, values: np.ndarray) -> np.ndarray:
        """Store one solved column (read-only copy); returns the stored array."""
        values = np.array(values, dtype=float)  # private copy, never a view
        values.flags.writeable = False
        return self._columns.put((fingerprint, int(column)), values)

    def contains(self, fingerprint: str, column: int) -> bool:
        """Pure membership probe (RAM, then backend): no counters, no recency."""
        key = (fingerprint, int(column))
        backend = self._columns.tier
        return self._columns.contains(key) or (backend is not None and backend.contains(key))

    # ------------------------------------------------------------- maintenance
    def set_budget(self, max_bytes: int) -> None:
        """Change the byte budget and evict down to it immediately."""
        self._columns.set_budget(max_bytes)

    def clear(self, fingerprint: str | None = None) -> int:
        """Drop everything, or only one substrate's columns; counters survive.

        Every dropped column counts as an eviction.  With a backend attached
        the persistent corpus is cleared too.  Returns the number of columns
        evicted from RAM.
        """
        dropped = self._columns.clear(fingerprint)
        backend = self._columns.tier
        if backend is not None:
            backend.delete(fingerprint)
        return dropped

    def __len__(self) -> int:
        return len(self._columns)

    def fingerprints(self) -> dict[str, dict]:
        """Per-substrate RAM occupancy: ``{fingerprint: {"columns", "bytes"}}``.

        Keyed by the fingerprint digest itself, the same text ``/v1/stats``
        carries as ``"digest"``: an operator's view of where warm state
        lives (each cluster worker serves its own on its ``/v1/stats``).
        Its cost follows the number of fingerprints, not of stored columns.
        """
        return {
            fp: {"columns": group["entries"], "bytes": group["size"]}
            for fp, group in self._columns.info()["groups"].items()
        }

    def info(self) -> dict:
        """Occupancy and hit/miss counters (service metrics / benchmarks)."""
        info = self._columns.info()
        groups = sorted(info["groups"].items(), key=lambda kv: -kv[1]["size"])
        return {
            "columns": info["entries"],
            "bytes": info["size"],
            "max_bytes": info["budget"],
            "hits": info["hits"],
            "misses": info["misses"],
            "evictions": info["evictions"],
            "oversized": info["oversized"],
            "disk_hits": info["tier_hits"],
            "disk_misses": info["tier_misses"],
            "backend_errors": info["tier_errors"],
            "fingerprints": [
                {"digest": fp, "columns": group["entries"], "bytes": group["size"]}
                for fp, group in groups
            ],
        }
