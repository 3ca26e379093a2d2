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

The store is a byte-budgeted LRU (like the
:class:`~repro.substrate.factor_cache.FactorCache`, but keyed per column so
partial overlaps hit): once the budget is exceeded the least-recently-used
columns are dropped, oldest first.  A column larger than the whole budget
is served but never stored, and counted in ``oversized``.  Stored columns
are marked read-only — many jobs may hold views of the same array.  The
per-substrate occupancy that ``/v1/stats`` reports is kept up to date
wherever a column is admitted, evicted or cleared, so reading it walks no
stored column.

With a persistent backend attached (the
:class:`~repro.service.persistence.SqliteResultBackend` of a service state
dir) the LRU becomes a read-through/write-through cache: a RAM miss
consults the corpus on disk before reporting a miss, and every ``put``
lands on disk as well, so LRU eviction never loses a solved column and a
restarted service serves the whole corpus with zero new solves.

Environment knob: ``REPRO_RESULT_STORE_BYTES`` overrides the default budget
(256 MiB) used by schedulers that do not pass an explicit store.
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict

import numpy as np

from ..substrate.factor_cache import _env_bytes

__all__ = ["ResultStore", "DEFAULT_STORE_BYTES", "default_store_bytes"]

DEFAULT_STORE_BYTES = 256 * 1024 * 1024


def default_store_bytes() -> int:
    """Store budget in bytes (env: ``REPRO_RESULT_STORE_BYTES``).

    A malformed or negative value is rejected with a warning (falling back
    to the default) instead of being silently ignored — a typo'd budget
    must not masquerade as a deliberate one.
    """
    return _env_bytes("REPRO_RESULT_STORE_BYTES", DEFAULT_STORE_BYTES)


class ResultStore:
    """LRU cache of solved ``G`` columns keyed ``(fingerprint, column)``.

    ``backend`` (or :meth:`attach_backend`) plugs in a persistent corpus —
    anything with ``save/load/contains/delete`` over ``(fingerprint,
    column)`` float arrays, in practice the sqlite backend of a service
    state dir.  Without one the store is the same purely in-memory LRU as
    before.
    """

    def __init__(self, max_bytes: int | None = None, backend=None) -> None:
        # reprolint: guarded-by(_lock)
        self.max_bytes = int(max_bytes if max_bytes is not None else default_store_bytes())
        # reprolint: guarded-by(_lock)
        self._columns: "OrderedDict[tuple[str, int], np.ndarray]" = OrderedDict()
        self._bytes = 0  # reprolint: guarded-by(_lock)
        #: RAM occupancy per fingerprint, ``{"columns": n, "bytes": b}``; a
        #: fingerprint leaves when its last column does
        # reprolint: guarded-by(_lock)
        self._occupancy: dict[str, dict[str, int]] = {}
        self._lock = threading.RLock()
        self._backend = backend  # reprolint: guarded-by(_lock)
        self.hits = 0  # reprolint: guarded-by(_lock)
        self.misses = 0  # reprolint: guarded-by(_lock)
        self.evictions = 0  # reprolint: guarded-by(_lock)
        #: columns served but not stored: each larger than the whole budget
        self.oversized = 0  # reprolint: guarded-by(_lock)
        self.disk_hits = 0  # reprolint: guarded-by(_lock)
        self.disk_misses = 0  # reprolint: guarded-by(_lock)
        #: backend save/load calls that raised (degraded to RAM-only service)
        self.backend_errors = 0  # reprolint: guarded-by(_lock)

    @property
    def backend(self):
        with self._lock:
            return self._backend

    def attach_backend(self, backend) -> None:
        """Attach (or detach, with ``None``) the persistent column corpus."""
        with self._lock:
            self._backend = backend

    # ------------------------------------------------------------------ access
    def get(self, fingerprint: str, column: int) -> np.ndarray | None:
        """One stored column (refreshing recency), or ``None``; counts hit/miss.

        On a RAM miss with a backend attached, the persistent corpus is
        consulted and a disk hit is re-admitted to the LRU — it counts as a
        (disk) hit, not a miss, because no solve is needed.
        """
        key = (fingerprint, int(column))
        with self._lock:
            value = self._columns.get(key)
            if value is not None:
                self._columns.move_to_end(key)
                self.hits += 1
                return value
            backend = self._backend
        if backend is not None:
            try:
                loaded = backend.load(fingerprint, column)
            except Exception as exc:  # noqa: BLE001 - degrade, don't fail the batch
                self._note_backend_error("load", exc)
                loaded = None
            if loaded is not None:
                with self._lock:
                    self.disk_hits += 1
                    self.hits += 1
                    self._admit_locked(key, loaded)
                return loaded
            with self._lock:
                self.disk_misses += 1
        with self._lock:
            self.misses += 1
        return None

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

    # reprolint: holds(_lock)
    def _admit_locked(self, key: tuple[str, int], values: np.ndarray) -> None:
        """Insert one read-only array into the LRU, evicting down to budget."""
        if values.nbytes > self.max_bytes:
            self.oversized += 1  # larger than the whole budget: serve, don't store
            return
        old = self._columns.pop(key, None)
        if old is not None:
            self._account_locked(key[0], -1, -old.nbytes)
        self._columns[key] = values
        self._account_locked(key[0], 1, values.nbytes)
        self._evict_to_budget_locked()

    # reprolint: holds(_lock)
    def _account_locked(self, fingerprint: str, columns: int, nbytes: int) -> None:
        """Add ``columns`` columns of ``nbytes`` bytes (negative to remove)."""
        self._bytes += nbytes
        entry = self._occupancy.setdefault(fingerprint, {"columns": 0, "bytes": 0})
        entry["columns"] += columns
        entry["bytes"] += nbytes
        if entry["columns"] == 0:
            del self._occupancy[fingerprint]

    # reprolint: holds(_lock)
    def _evict_to_budget_locked(self) -> None:
        """Drop least-recently-used columns until the budget holds."""
        while self._bytes > self.max_bytes and self._columns:
            (fingerprint, _), victim = self._columns.popitem(last=False)
            self._account_locked(fingerprint, -1, -victim.nbytes)
            self.evictions += 1

    def put(self, fingerprint: str, column: int, values: np.ndarray) -> np.ndarray:
        """Store one solved column (read-only copy); returns the stored array.

        With a backend attached the column is also written through to the
        persistent corpus (outside the lock — sqlite I/O must not block
        concurrent readers of the LRU).
        """
        values = np.array(values, dtype=float)  # private copy, never a view
        values.flags.writeable = False
        key = (fingerprint, int(column))
        with self._lock:
            self._admit_locked(key, values)
            backend = self._backend
        if backend is not None:
            try:
                backend.save(fingerprint, column, values)
            except Exception as exc:  # noqa: BLE001 - degrade, don't fail the batch
                self._note_backend_error("save", exc)
        return values

    def _note_backend_error(self, op: str, exc: Exception) -> None:
        """Count + warn on a failed backend call; the RAM LRU keeps serving.

        A sick disk must degrade durability, not availability: the column is
        still served (and stored in RAM), only the write-through/read-through
        is lost until the backend recovers.
        """
        with self._lock:
            self.backend_errors += 1
        warnings.warn(
            f"result-store backend {op} failed ({type(exc).__name__}: {exc}); "
            "continuing without persistence for this column",
            RuntimeWarning,
            stacklevel=3,
        )

    def contains(self, fingerprint: str, column: int) -> bool:
        """Pure membership probe — no counters, no recency update."""
        with self._lock:
            if (fingerprint, int(column)) in self._columns:
                return True
            backend = self._backend
        return backend is not None and backend.contains(fingerprint, column)

    # ------------------------------------------------------------- maintenance
    def set_budget(self, max_bytes: int) -> None:
        """Change the byte budget and evict down to it immediately."""
        with self._lock:
            self.max_bytes = int(max_bytes)
            self._evict_to_budget_locked()

    def clear(self, fingerprint: str | None = None) -> int:
        """Drop everything, or only one substrate's columns; counters survive.

        Every dropped column counts as an eviction (both clear paths used to
        bypass the counter).  With a backend attached the persistent corpus
        is cleared too.  Returns the number of columns evicted from RAM.
        """
        with self._lock:
            if fingerprint is None:
                dropped = len(self._columns)
                self._columns.clear()
                self._occupancy.clear()
                self._bytes = 0
            else:
                dropped = 0
                for key in [k for k in self._columns if k[0] == fingerprint]:
                    victim = self._columns.pop(key)
                    self._account_locked(fingerprint, -1, -victim.nbytes)
                    dropped += 1
            self.evictions += dropped
            backend = self._backend
        if backend is not None:
            backend.delete(fingerprint)
        return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._columns)

    def fingerprints(self) -> dict[str, dict]:
        """Per-substrate RAM occupancy: ``{fingerprint: {"columns", "bytes"}}``.

        Keyed by the fingerprint digest itself, the same text ``/v1/stats``
        carries as ``"digest"``: an operator's view of where warm state
        lives (each cluster worker serves its own on its ``/v1/stats``).
        A copy of the counts kept on admission, eviction and clear: its
        cost follows the number of fingerprints, not of stored columns.
        """
        with self._lock:
            return {fp: dict(entry) for fp, entry in self._occupancy.items()}

    def info(self) -> dict:
        """Occupancy and hit/miss counters (service metrics / benchmarks)."""
        with self._lock:
            doc = {
                "columns": len(self._columns),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "oversized": self.oversized,
                "disk_hits": self.disk_hits,
                "disk_misses": self.disk_misses,
                "backend_errors": self.backend_errors,
            }
        doc["fingerprints"] = [
            {"digest": fp, **entry}
            for fp, entry in sorted(
                self.fingerprints().items(), key=lambda kv: -kv[1]["bytes"]
            )
        ]
        return doc

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        with self._lock:
            return (
                f"ResultStore(columns={len(self._columns)}, bytes={self._bytes}, "
                f"max_bytes={self.max_bytes})"
            )
