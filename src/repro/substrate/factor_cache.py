"""Process-wide cache of the substrate solvers' direct factors.

Extraction workloads build the *same* solver over and over: every benchmark
repetition, every table row, every service engine reconstructs an
:class:`~repro.substrate.bem.solver.EigenfunctionSolver` or
:class:`~repro.substrate.fd.solver.FiniteDifferenceSolver` for an identical
``(layout, profile, discretisation)`` and then needs the exact same direct
factor: the dense ``A_cc`` Cholesky (or Schur/bordered, floating) factor, or
the FD sparse LU of the interior Laplacian.  This module holds those factors
in one memory-budgeted, process-wide LRU so a second solver over the same
substrate pays ~zero factor cost.  Nothing else is cached here: an
eigenvalue table takes ~1.5 ms to build, so each operator builds its own.

Keys are tuples whose first element is a *kind* string
(``"bem_direct_factor"``, ``"fd_direct_factor"``) followed by the identity of
the physics and discretisation, typically
``(ContactLayout.fingerprint, SubstrateProfile.cache_key, grid shape)``.
Values are opaque to the cache; byte sizes are estimated from the factor's
arrays (or a SuperLU's stored entries) and the least-recently-used entries
are evicted once the budget is exceeded.

The cache is **per process**; every solver in the process shares it.  It
is the only owner of the direct factors it holds, the eigenfunction
solver's dense factors and the finite-difference solver's sparse LUs alike:
a solver looks its factor up once per direct block (:meth:`FactorCache.get_or_build`)
and keeps no reference of its own, so the budget bounds those factors and
``clear``, ``set_budget`` and LRU eviction free them (the next direct block
rebuilds).  A solver holds a factor itself only when the cache will not
(disabled for that solver, or refused as oversized).  A dense factor is
checked for NaN/inf once, where it enters the process (built or loaded;
:func:`seal_factor_arrays`), and its arrays are read-only from then on.

On top of the in-RAM cache, an optional **content-addressed artifact store**
(:class:`FactorArtifactStore`) persists the eigenfunction solver's dense
factors to disk under the digest of their cache key: the cache consults it
on a miss before any caller rebuilds, and writes freshly built factors
through to it, so a *restarted* process (whose RAM cache is empty) skips the
cold factorisation.  Factors are written as flat array payloads
(:func:`_flatten_factor`) and rebuilt from them (:func:`_rebuild_factor`).
FD sparse LUs stay in RAM only: SciPy's SuperLU cannot be rebuilt from its
arrays, and solving through the arrays instead ran ~1.5-2.5x slower than the
native factor, more per block than the ~0.2 s a rebuild costs.  After a
restart an FD solver rebuilds its LU once, like any cache miss.  No store is
attached by default; the extraction service wires one in when it is given a
state directory.

Environment knob: ``REPRO_FACTOR_CACHE_BYTES`` overrides the default budget
(512 MiB) for the process-wide instance; a malformed or negative value warns
and falls back to the default.  The budget also sets the default
dense-factor ceiling of :class:`~repro.substrate.dispatch.DispatchPolicy`
(:meth:`FactorCache.max_dense_factor_order`).
"""

from __future__ import annotations

import json
import math
import os
import threading
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Hashable

import numpy as np

__all__ = [
    "FactorCache",
    "FactorArtifactStore",
    "factor_cache",
    "factor_cache_info",
    "factor_cache_clear",
    "seal_factor_arrays",
    "set_factor_cache_budget",
    "DEFAULT_BUDGET_BYTES",
    "PERSISTED_FACTOR_KINDS",
]

DEFAULT_BUDGET_BYTES = 512 * 1024 * 1024

#: cache-entry kinds the artifact store persists: the eigenfunction solver's
#: dense factors, the one kind the flatten/rebuild contract below serialises
PERSISTED_FACTOR_KINDS = ("bem_direct_factor",)


def _env_bytes(name: str, default: int) -> int:
    """Byte budget from the environment variable ``name``, else ``default``.

    A malformed or negative value is rejected with a warning (falling back
    to the default) instead of being silently ignored: a typo'd budget must
    not masquerade as a deliberate one.
    """
    env = os.environ.get(name)
    if env:
        try:
            value = int(env)
            if value < 0:
                raise ValueError("budget must be >= 0")
            return value
        except ValueError as exc:
            warnings.warn(
                f"ignoring invalid {name}={env!r} ({exc}); "
                f"using the default of {default} bytes",
                RuntimeWarning,
                stacklevel=3,
            )
    return default


def _estimate_nbytes(value: Any) -> int:
    """Byte size of a cached factor: its arrays, or a SuperLU's stored entries."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_estimate_nbytes(v) for v in value) + 64
    nnz = getattr(value, "nnz", None)
    if isinstance(nnz, (int, np.integer)):  # e.g. a SuperLU factorisation
        # one double plus one int32 index per stored entry
        return int(nnz) * 12 + 64
    return 64


class FactorCache:
    """Memory-budgeted LRU cache of the substrate solvers' direct factors.

    Parameters
    ----------
    max_bytes:
        Total budget across all entries.  An entry larger than the whole
        budget is returned to the caller but never stored (counted in
        ``oversized``).
    """

    def __init__(self, max_bytes: int = DEFAULT_BUDGET_BYTES) -> None:
        self.max_bytes = int(max_bytes)  # reprolint: guarded-by(_lock)
        # reprolint: guarded-by(_lock)
        self._entries: "OrderedDict[Hashable, tuple[Any, int]]" = OrderedDict()
        self._bytes = 0  # reprolint: guarded-by(_lock)
        self._lock = threading.RLock()
        self.hits = 0  # reprolint: guarded-by(_lock)
        self.misses = 0  # reprolint: guarded-by(_lock)
        self.evictions = 0  # reprolint: guarded-by(_lock)
        self.oversized = 0  # reprolint: guarded-by(_lock)
        self._kind_hits: dict[str, int] = {}  # reprolint: guarded-by(_lock)
        self._kind_misses: dict[str, int] = {}  # reprolint: guarded-by(_lock)
        #: optional on-disk artifact store consulted on a RAM miss (and
        #: written through on put) for the persistable factor kinds
        # reprolint: guarded-by(_lock)
        self._artifact_store: "FactorArtifactStore | None" = None
        self.artifact_hits = 0  # reprolint: guarded-by(_lock)
        self.artifact_misses = 0  # reprolint: guarded-by(_lock)

    # ---------------------------------------------------------------- artifacts
    @property
    def artifact_store(self) -> "FactorArtifactStore | None":
        with self._lock:
            return self._artifact_store

    def set_artifact_store(self, store: "FactorArtifactStore | None") -> None:
        """Attach (or detach, with ``None``) the on-disk artifact store.

        While attached, :meth:`get` falls through to the store on a RAM miss
        for the :data:`PERSISTED_FACTOR_KINDS` and :meth:`put` writes freshly
        built factors through to it — so a restarted process warm-starts its
        factors from disk instead of refactoring.
        """
        with self._lock:
            self._artifact_store = store

    # ------------------------------------------------------------------ config
    def set_budget(self, max_bytes: int) -> None:
        """Change the byte budget and evict down to it immediately."""
        with self._lock:
            self.max_bytes = int(max_bytes)
            self._evict_to_budget()

    @staticmethod
    def _kind_of(key: Hashable) -> str:
        if isinstance(key, tuple) and key and isinstance(key[0], str):
            return key[0]
        return ""

    # ------------------------------------------------------------------ access
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency; counts one hit or miss.

        With an artifact store attached, a RAM miss on a persistable factor
        kind falls through to disk: a loaded artifact is admitted into the
        RAM cache and counted as a hit (the caller was served without a
        rebuild), plus one ``artifact_hits``.  The load runs outside the
        cache lock (a 5,120-panel factor is ~200 MB), so lookups of other
        keys never wait for the disk.
        """
        kind = self._kind_of(key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._count(kind, hit=True)
                return entry[0]
            store = self._artifact_store
        loadable = store is not None and store.handles(key)
        value = store.load(key) if loadable else None
        with self._lock:
            if loadable and value is None:
                self.artifact_misses += 1
            elif loadable:
                self.artifact_hits += 1
                self._admit(key, value)
            self._count(kind, hit=value is not None)
        return default if value is None else value

    def contains(self, key: Hashable) -> bool:
        """Pure membership probe: no counters, no recency update.

        Used by dispatch policies to ask "would a factor be free?" without
        skewing the hit/miss statistics reported in benchmark records.
        """
        with self._lock:
            return key in self._entries

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """The entry under ``key`` with no side effects, like :meth:`contains`.

        No counters, no recency update and no artifact-store fall-through:
        for inspecting what the cache holds without skewing its statistics.
        """
        with self._lock:
            entry = self._entries.get(key)
        return default if entry is None else entry[0]

    def max_dense_factor_order(self) -> int:
        """Largest ``n`` whose float64 ``n x n`` Cholesky factor :meth:`put` stores.

        Sized with :meth:`put`'s own estimate of a ``("chol", (c, lower))``
        factor, whose tuples add a few hundred bytes to the array's, so a
        factor of order ``isqrt(max_bytes // 8)`` is already refused.
        """
        overhead = _estimate_nbytes(("chol", (np.empty((0, 0)), True)))
        with self._lock:
            budget = self.max_bytes
        return math.isqrt(max(budget - overhead, 0) // 8)

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert ``value`` under ``key`` (replacing any old entry) and return it.

        With an artifact store attached, persistable factor kinds are also
        written through to disk (content-addressed — an existing artifact is
        never rewritten), outside the cache lock.
        """
        with self._lock:
            store = self._artifact_store
            self._admit(key, value)
        if store is not None and store.handles(key):
            store.save(key, value)
        return value

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Return the cached factor, building and inserting it on a miss.

        One counted :meth:`get` (artifact store included); on a miss
        ``builder()`` runs outside the lock and its value goes through
        :meth:`put`, which may refuse it as oversized.  The value is returned
        either way.  Both solvers' direct factors are looked up and built
        through here.
        """
        found = object()
        value = self.get(key, default=found)
        if value is not found:
            return value
        return self.put(key, builder())

    # reprolint: holds(_lock)
    def _admit(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key`` within the budget, or refuse it as oversized."""
        size = _estimate_nbytes(value)
        if size > self.max_bytes:
            self.oversized += 1
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        self._entries[key] = (value, size)
        self._bytes += size
        self._evict_to_budget()

    # reprolint: holds(_lock)
    def _count(self, kind: str, hit: bool) -> None:
        if hit:
            self.hits += 1
            self._kind_hits[kind] = self._kind_hits.get(kind, 0) + 1
        else:
            self.misses += 1
            self._kind_misses[kind] = self._kind_misses.get(kind, 0) + 1

    # ---------------------------------------------------------------- eviction
    # reprolint: holds(_lock)
    def _evict_to_budget(self) -> None:
        while self._bytes > self.max_bytes and self._entries:
            _, (_, size) = self._entries.popitem(last=False)
            self._bytes -= size
            self.evictions += 1

    # ------------------------------------------------------------- maintenance
    def clear(self, kind: str | None = None) -> None:
        """Drop all entries, or only those of one ``kind``; counters survive."""
        with self._lock:
            if kind is None:
                self._entries.clear()
                self._bytes = 0
                return
            for key in [k for k in self._entries if self._kind_of(k) == kind]:
                _, size = self._entries.pop(key)
                self._bytes -= size

    def cache_info(self) -> dict:
        """Snapshot of occupancy and hit/miss counters (benchmark records)."""
        with self._lock:
            by_kind: dict[str, dict[str, int]] = {}
            for key, (_, size) in self._entries.items():
                slot = by_kind.setdefault(
                    self._kind_of(key), {"entries": 0, "bytes": 0}
                )
                slot["entries"] += 1
                slot["bytes"] += size
            for kind in set(self._kind_hits) | set(self._kind_misses):
                slot = by_kind.setdefault(kind, {"entries": 0, "bytes": 0})
                slot["hits"] = self._kind_hits.get(kind, 0)
                slot["misses"] = self._kind_misses.get(kind, 0)
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "oversized": self.oversized,
                "artifact_hits": self.artifact_hits,
                "artifact_misses": self.artifact_misses,
                "by_kind": by_kind,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        with self._lock:
            return (
                f"FactorCache(entries={len(self._entries)}, bytes={self._bytes}, "
                f"max_bytes={self.max_bytes})"
            )


def _default_budget() -> int:
    """Budget of the process-wide cache (env: ``REPRO_FACTOR_CACHE_BYTES``)."""
    return _env_bytes("REPRO_FACTOR_CACHE_BYTES", DEFAULT_BUDGET_BYTES)


#: the process-wide instance every solver consults before factoring
_GLOBAL = FactorCache(max_bytes=_default_budget())


def factor_cache() -> FactorCache:
    """The process-wide :class:`FactorCache` instance."""
    return _GLOBAL


def factor_cache_info() -> dict:
    """``cache_info()`` of the process-wide cache."""
    return _GLOBAL.cache_info()


def factor_cache_clear(kind: str | None = None) -> None:
    """Clear the process-wide cache (optionally only one entry kind)."""
    _GLOBAL.clear(kind)


def set_factor_cache_budget(max_bytes: int) -> None:
    """Change the process-wide cache budget, evicting down to it."""
    _GLOBAL.set_budget(max_bytes)


def seal_factor_arrays(*arrays: np.ndarray) -> None:
    """Refuse a factor payload holding NaN or inf, then make it read-only.

    Every dense factor passes here once, where it enters the process: when
    a solver builds it, and when :func:`_rebuild_factor` restores it from an
    artifact.  Its block solves then skip SciPy's
    per-call rescan of the whole factor (``check_finite=False``), which is
    sound because the scan happened here and nothing can write the arrays
    afterwards.
    """
    for a in arrays:
        if a.dtype.kind == "f" and not np.isfinite(a).all():
            raise ValueError("factor payload holds NaN or inf")
    for a in arrays:
        a.flags.writeable = False


# ================================================================ flattening
# A factor is *flattened* into (meta, arrays): ``meta`` is a small JSON-able
# description of the factor's structure, ``arrays`` the ordered list of numpy
# payloads.  :class:`FactorArtifactStore` writes exactly this pair to disk and
# rebuilds the factor from it.


def _flatten_factor(factor: Any) -> tuple[dict, list[np.ndarray]]:
    """Decompose a cacheable factor into (JSON-able meta, array payloads).

    Supported shapes are exactly the eigenfunction solver's dense factor
    tuples: ``("chol", (c, lower))``, ``("schur", (c, lower), w, s)`` and
    ``("bordered", lu, piv)``.  Raises ``TypeError`` for anything else, so
    callers can skip unpersistable cache entries.

    A dense factor (the ``c`` or ``lu`` matrix) is Fortran-ordered, as
    LAPACK builds and reads it.  It ships as its C-contiguous transpose, a
    view rather than a copy, flagged ``transposed`` in ``meta`` so
    :func:`_rebuild_factor` hands back the same Fortran-ordered matrix.
    """
    if isinstance(factor, tuple) and factor and isinstance(factor[0], str):
        kind = factor[0]
        if kind == "chol":
            c, lower = factor[1]
            meta = {"factor": "chol", "lower": bool(lower), "transposed": True}
            return meta, [np.ascontiguousarray(c.T)]
        if kind == "schur":
            (c, lower), w, s = factor[1], factor[2], factor[3]
            return (
                {"factor": "schur", "lower": bool(lower), "s": float(s), "transposed": True},
                [np.ascontiguousarray(c.T), np.ascontiguousarray(w)],
            )
        if kind == "bordered":
            lu, piv = factor[1], factor[2]
            return {"factor": "bordered", "transposed": True}, [
                np.ascontiguousarray(lu.T),
                np.ascontiguousarray(piv),
            ]
        raise TypeError(f"unknown dense factor kind {kind!r}")
    raise TypeError(f"cannot flatten factor of type {type(factor).__name__}")


def _rebuild_factor(meta: dict, arrays: list[np.ndarray]) -> Any:
    """Inverse of :func:`_flatten_factor` over loaded arrays.

    A dense factor stored ``transposed`` is transposed back, a view in
    Fortran order; one from an artifact written before that flag existed is
    C-ordered and converted once here, so no block solve copies it.  Then
    every payload is checked and sealed (:func:`seal_factor_arrays`): one
    holding NaN or inf raises ``ValueError``, so a corrupt artifact loads
    as a miss.
    """
    kind = meta["factor"]
    if kind not in ("chol", "schur", "bordered"):
        raise TypeError(f"unknown flattened factor kind {kind!r}")
    arrays = list(arrays)
    dense = arrays[0]
    arrays[0] = dense.T if meta.get("transposed") else np.asfortranarray(dense)
    seal_factor_arrays(*arrays)
    if kind == "chol":
        return ("chol", (arrays[0], meta["lower"]))
    if kind == "schur":
        return ("schur", (arrays[0], meta["lower"]), arrays[1], meta["s"])
    return ("bordered", arrays[0], arrays[1])


# ================================================================== artifacts
# Content-addressed on-disk persistence of factor payloads.  The
# (meta, arrays) flattening above makes them durable: each artifact is one ``<digest>.npz`` of the payload arrays
# plus a ``<digest>.json`` sidecar holding the structural meta and the
# human-readable cache key, where ``digest`` addresses the *cache key* — the
# full identity of the physics, discretisation and factor kind.  A restarted
# process therefore finds exactly the factors it would otherwise rebuild.


def _file_bytes(path: Path) -> int | None:
    """Size of ``path`` in bytes, or None when there is no such file."""
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return None


def _key_digest(key: Hashable) -> str:
    """Stable hex digest of a cache key (filenames of its artifacts)."""
    import hashlib

    return hashlib.blake2b(repr(key).encode(), digest_size=16).hexdigest()


class FactorArtifactStore:
    """Content-addressed on-disk cache of serialised factor payloads.

    Parameters
    ----------
    root:
        Directory the artifacts live under (created on first use).  Writes
        are atomic (temp file + ``os.replace``) so a crash mid-write never
        leaves a half-readable artifact; corrupted or unreadable artifacts
        are skipped with a warning, never raised to the solver.

    Only the :data:`PERSISTED_FACTOR_KINDS` are handled; values that the
    flatten contract cannot serialise are skipped (counted in
    ``save_skips``).  All methods are thread-safe.  The artifact count and
    bytes that :meth:`info` reports come from one directory scan at open,
    then from each new :meth:`save`, so reading them scans nothing.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: serialises the check-write-count of :meth:`save`, so two savers of
        #: one key neither share a temp file nor count the artifact twice
        self._save_lock = threading.Lock()
        self.hits = 0  # reprolint: guarded-by(_lock)
        self.misses = 0  # reprolint: guarded-by(_lock)
        self.saves = 0  # reprolint: guarded-by(_lock)
        self.save_skips = 0  # reprolint: guarded-by(_lock)
        sizes = map(_file_bytes, self.root.glob("*.npz"))
        payloads = [size for size in sizes if size is not None]
        self._artifacts = len(payloads)  # reprolint: guarded-by(_lock)
        self._bytes = sum(payloads)  # reprolint: guarded-by(_lock)

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def handles(key: Hashable) -> bool:
        """True when ``key`` names a factor kind this store persists."""
        return (
            isinstance(key, tuple)
            and bool(key)
            and key[0] in PERSISTED_FACTOR_KINDS
        )

    def _paths(self, key: Hashable) -> tuple[Path, Path]:
        digest = _key_digest(key)
        return self.root / f"{digest}.json", self.root / f"{digest}.npz"

    # ------------------------------------------------------------------- access
    def contains(self, key: Hashable) -> bool:
        """Pure membership probe — no counters."""
        meta_path, payload_path = self._paths(key)
        return meta_path.exists() and payload_path.exists()

    def save(self, key: Hashable, factor: Any) -> bool:
        """Persist one factor; returns True when an artifact exists afterwards.

        Content-addressed: a key whose artifact is already on disk is never
        rewritten (the key digests the full factor identity, so the payload
        cannot differ).  Unserialisable factors and I/O failures are counted
        in ``save_skips`` and otherwise ignored — persistence must never fail
        a solve.
        """
        if not self.handles(key):
            return False
        meta_path, payload_path = self._paths(key)
        with self._save_lock:
            if meta_path.exists() and payload_path.exists():
                return True
            try:
                meta, arrays = _flatten_factor(factor)
            except TypeError:
                with self._lock:
                    self.save_skips += 1
                return False
            # a payload left without its sidecar (a crash between the two
            # writes) is counted already: replacing it adds no artifact
            old_bytes = _file_bytes(payload_path)
            saved = True
            try:
                tmp_payload = payload_path.with_name(payload_path.name + ".tmp")
                # write through a handle: np.savez would append ".npz" to the
                # temp *name*, breaking the atomic rename
                with open(tmp_payload, "wb") as fh:
                    np.savez(fh, **{f"a{i}": a for i, a in enumerate(arrays)})
                os.replace(tmp_payload, payload_path)
                doc = {
                    "meta": meta,
                    "key": repr(key),
                    "n_arrays": len(arrays),
                    "nbytes": int(sum(a.nbytes for a in arrays)),
                }
                tmp_meta = meta_path.with_name(meta_path.name + ".tmp")
                tmp_meta.write_text(json.dumps(doc, sort_keys=True))
                # the meta sidecar lands last: an artifact without its sidecar
                # is invisible to load(), so a crash between the writes is safe
                os.replace(tmp_meta, meta_path)
            except (OSError, ValueError) as exc:
                warnings.warn(
                    f"could not persist factor artifact for {key!r}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                saved = False
            new_bytes = _file_bytes(payload_path)
            with self._lock:
                if saved:
                    self.saves += 1
                else:
                    self.save_skips += 1
                self._artifacts += (new_bytes is not None) - (old_bytes is not None)
                self._bytes += (new_bytes or 0) - (old_bytes or 0)
            return saved

    def load(self, key: Hashable) -> Any | None:
        """Rebuild one persisted factor, or ``None`` when absent/corrupt.

        A payload holding NaN or inf is corrupt too (:func:`_rebuild_factor`
        refuses it): a warned, counted miss, so the caller rebuilds.
        """
        if not self.handles(key):
            return None
        meta_path, payload_path = self._paths(key)
        if not meta_path.exists():
            with self._lock:
                self.misses += 1
            return None
        try:
            doc = json.loads(meta_path.read_text())
            with np.load(payload_path, allow_pickle=False) as payload:
                arrays = [payload[f"a{i}"] for i in range(int(doc["n_arrays"]))]
            factor = _rebuild_factor(doc["meta"], arrays)
        except Exception as exc:  # noqa: BLE001 - any corruption means "absent"
            warnings.warn(
                f"skipping corrupted factor artifact {meta_path.name}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return factor

    # -------------------------------------------------------------- maintenance
    def info(self) -> dict:
        """Occupancy and hit/miss counters (service metrics / benchmarks)."""
        with self._lock:
            return {
                "root": str(self.root),
                "artifacts": self._artifacts,
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "saves": self.saves,
                "save_skips": self.save_skips,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"FactorArtifactStore(root={str(self.root)!r})"
