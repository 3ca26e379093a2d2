"""Durable state for the extraction service: corpus, artifacts, journal.

Everything the service amortises across requests — solved ``G`` columns in
the :class:`~repro.service.result_store.ResultStore`, factorisations in the
process-wide :class:`~repro.substrate.factor_cache.FactorCache`, accepted
jobs in the scheduler queue — used to die with the process.  This module
makes that state survive a restart behind one :class:`ServicePersistence`
object rooted at a state directory:

``results.sqlite``
    :class:`SqliteResultBackend` — every solved conductance column keyed
    ``(fingerprint digest, column)``, with the in-RAM LRU acting as a
    read-through/write-through cache.  A restarted service serves a
    previously solved column set with **zero** new attributed solves.
``artifacts/``
    :class:`~repro.substrate.factor_cache.FactorArtifactStore` — the
    eigenfunction solver's dense factors (flattened arrays plus a JSON
    sidecar) under their cache-key digest, consulted by the factor cache on
    miss, so a warm start loads them instead of refactoring.  FD sparse LUs
    are not persisted: a restarted engine rebuilds its LU once.
``journal.jsonl``
    :class:`JobJournal` — accepted :class:`~repro.service.jobs.JobRequest`
    objects as their ``/v1`` wire documents
    (:func:`~repro.service.wire.request_to_wire`), appended (fsync'd)
    *before* the submit call acknowledges, marked terminal on finalize,
    and replayed on startup through
    :func:`~repro.service.wire.request_from_wire`, so a crash mid-drain
    loses no accepted work (the gridworks idiom: persist every event
    before acting on it).  No file in the state directory is ever
    unpickled.

The default remains in-memory: a scheduler constructed without a state-dir
path (or a server without ``--state-dir``) touches no files.
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
import threading
import warnings
from pathlib import Path

import numpy as np

from ..faults import fault_hook
from ..substrate.factor_cache import FactorArtifactStore
from .jobs import JobRequest
from .wire import WireFormatError, request_from_wire

__all__ = ["ServicePersistence", "SqliteResultBackend", "JobJournal"]

#: scheduler job-id format; the journal recovers the sequence counter from it
_JOB_ID_RE = re.compile(r"^job-(\d+)$")


class SqliteResultBackend:
    """Solved-column corpus in one sqlite file, keyed ``(fingerprint, column)``.

    The stdlib ``sqlite3`` module is the storage engine (the related repos'
    long-running daemons keep cluster state the same way): one table of
    float64 blobs, WAL journaling so the dispatcher's writes never block a
    concurrent reader, and a single connection shared across threads behind
    a lock (``check_same_thread=False`` — the HTTP handler threads and the
    dispatcher both touch the store).  The corpus size that :meth:`info`
    reports is counted once at open and kept exact by :meth:`save` and
    :meth:`delete`, so reading it runs no query.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        # reprolint: guarded-by(_lock); owned-by(SqliteResultBackend)
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS result_columns ("
                "  fingerprint TEXT NOT NULL,"
                "  column_index INTEGER NOT NULL,"
                "  n_values INTEGER NOT NULL,"
                "  data BLOB NOT NULL,"
                "  PRIMARY KEY (fingerprint, column_index)"
                ")"
            )
            self._conn.commit()
            rows, nbytes = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(data)), 0) FROM result_columns"
            ).fetchone()
        except Exception:
            # schema setup failed (locked file, corrupt database, full
            # volume): the half-initialised connection must not leak — no
            # owner will ever call close() on a backend that never existed
            self._conn.close()
            raise
        self.loads = 0  # reprolint: guarded-by(_lock)
        self.load_misses = 0  # reprolint: guarded-by(_lock)
        self.saves = 0  # reprolint: guarded-by(_lock)
        self.columns = int(rows)  # reprolint: guarded-by(_lock)
        self.bytes = int(nbytes)  # reprolint: guarded-by(_lock)

    # ------------------------------------------------------------------ access
    def save(self, fingerprint: str, column: int, values: np.ndarray) -> None:
        """Persist one solved column (idempotent upsert)."""
        fault_hook("sqlite.write", op="save")
        data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
        with self._lock:
            existing, old_bytes = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(data)), 0) FROM result_columns "
                "WHERE fingerprint = ? AND column_index = ?",
                (fingerprint, int(column)),
            ).fetchone()
            self._conn.execute(
                "INSERT OR REPLACE INTO result_columns "
                "(fingerprint, column_index, n_values, data) VALUES (?, ?, ?, ?)",
                (fingerprint, int(column), len(values), data),
            )
            self._conn.commit()
            self.saves += 1
            self.columns += 1 - existing
            self.bytes += len(data) - old_bytes

    def load(self, fingerprint: str, column: int) -> np.ndarray | None:
        """One persisted column as a read-only float64 array, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT data FROM result_columns "
                "WHERE fingerprint = ? AND column_index = ?",
                (fingerprint, int(column)),
            ).fetchone()
            if row is None:
                self.load_misses += 1
                return None
            self.loads += 1
        values = np.frombuffer(row[0], dtype=np.float64)
        values.flags.writeable = False
        return values

    def contains(self, fingerprint: str, column: int) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM result_columns "
                "WHERE fingerprint = ? AND column_index = ?",
                (fingerprint, int(column)),
            ).fetchone()
        return row is not None

    def delete(self, fingerprint: str | None = None) -> int:
        """Drop one substrate's columns (or all); returns rows removed."""
        query, args = "DELETE FROM result_columns", ()
        if fingerprint is not None:
            query, args = query + " WHERE fingerprint = ?", (fingerprint,)
        with self._lock:
            sizes = self._conn.execute(query + " RETURNING LENGTH(data)", args).fetchall()
            self._conn.commit()
            self.columns -= len(sizes)
            self.bytes -= sum(size for (size,) in sizes)
            return len(sizes)

    # --------------------------------------------------------------- lifecycle
    def info(self) -> dict:
        with self._lock:
            return {
                "path": str(self.path),
                "columns": self.columns,
                "bytes": self.bytes,
                "loads": self.loads,
                "load_misses": self.load_misses,
                "saves": self.saves,
            }

    def close(self) -> None:
        with self._lock:
            self._conn.close()


class JobJournal:
    """Append-only JSONL log of accepted jobs and their terminal outcomes.

    Two event shapes::

        {"event": "accept", "job_id": ..., "request": <request_to_wire document>}
        {"event": "terminal", "job_id": ..., "status": ..., "attempts": ...}

    Accept events are flushed *and* fsync'd before :meth:`record_accept`
    returns — the scheduler only acknowledges a submit after the request is
    durable, so a crash at any later point can replay it.  Terminal marks
    are flush-only (losing one merely re-runs an already-solved job against
    a warm corpus, which costs zero solves).

    :meth:`recover` reads the journal back: accepted-but-not-terminal jobs
    in acceptance order (the replay set) and the largest job sequence number
    (so no id is ever reissued, and the scheduler knows every id up to it
    was issued: one it no longer holds has *expired*).
    Lines that are not JSON at all — the torn tail of a crash mid-write —
    are skipped with a warning.  A complete accept line whose request is
    not a valid wire document raises instead: older releases journaled
    base64-pickled requests, and guessing at those would be a silent
    mis-parse.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        # reprolint: guarded-by(_lock); owned-by(JobJournal)
        self._fh = open(self.path, "a", encoding="utf-8")
        self.accepts = 0  # reprolint: guarded-by(_lock)
        self.terminals = 0  # reprolint: guarded-by(_lock)
        self.corrupt_skipped = 0  # reprolint: guarded-by(_lock)

    # --------------------------------------------------------------- recording
    def record_accept(self, job_id: str, request_doc: dict) -> None:
        """Durably journal one accepted request's wire document *before* the
        submit ack."""
        line = json.dumps({"event": "accept", "job_id": job_id, "request": request_doc})
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self.accepts += 1

    def record_terminal(self, job_id: str, status: str, attempts: int = 0) -> None:
        """Mark one journaled job finished (flush-only; replay is idempotent)."""
        line = json.dumps(
            {
                "event": "terminal",
                "job_id": job_id,
                "status": status,
                "attempts": int(attempts),
            }
        )
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()
            self.terminals += 1

    # ---------------------------------------------------------------- recovery
    def recover(self) -> tuple[list[tuple[str, JobRequest]], int]:
        """``(replay, max_seq)`` from the journal on disk.

        ``replay`` lists ``(job_id, request)`` for every accepted job with
        no terminal mark, in acceptance order; ``max_seq`` is the largest
        numeric job sequence (0 when none parse).  Raises
        :class:`~repro.service.wire.WireFormatError` naming the file and
        line when an accept entry does not decode.
        """
        accepted: "dict[str, JobRequest]" = {}
        max_seq = 0
        if not self.path.exists():
            return [], max_seq
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                    event = doc["event"]
                    job_id = doc["job_id"]
                    if event not in ("accept", "terminal"):
                        raise ValueError(f"unknown journal event {event!r}")
                except (ValueError, TypeError, KeyError) as exc:  # crash-torn tail
                    with self._lock:
                        self.corrupt_skipped += 1
                    warnings.warn(
                        f"skipping corrupt journal entry at {self.path}:{lineno}: "
                        f"{type(exc).__name__}: {exc}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                if event == "accept":
                    accepted[job_id] = self._decode_accept(doc.get("request"), lineno)
                else:
                    accepted.pop(job_id, None)
                match = _JOB_ID_RE.match(job_id)
                if match:
                    max_seq = max(max_seq, int(match.group(1)))
        return list(accepted.items()), max_seq

    def _decode_accept(self, request_doc: object, lineno: int) -> JobRequest:
        try:
            return request_from_wire(request_doc)
        except WireFormatError as exc:
            raise WireFormatError(
                f"{self.path}:{lineno}: accept entry is not a /v1 request "
                f"document ({exc}); journals that hold base64-pickled requests "
                "(the format of older releases) are no longer replayed — drain "
                "them with the release that wrote them, then remove the file"
            ) from exc

    # --------------------------------------------------------------- lifecycle
    def info(self) -> dict:
        with self._lock:
            return {
                "path": str(self.path),
                "accepts": self.accepts,
                "terminals": self.terminals,
                "corrupt_skipped": self.corrupt_skipped,
                "bytes": self.path.stat().st_size if self.path.exists() else 0,
            }

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


class ServicePersistence:
    """One state directory holding every durable piece of the service.

    Construct with a directory path (created on demand); a
    :class:`~repro.service.scheduler.Scheduler` given ``persistence=path``
    builds and closes its own.  Owns lifecycle: :meth:`close` releases the
    sqlite connection and the journal handle.
    """

    def __init__(self, state_dir: str | os.PathLike) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.results = SqliteResultBackend(self.state_dir / "results.sqlite")
        self.artifacts = FactorArtifactStore(self.state_dir / "artifacts")
        self.journal = JobJournal(self.state_dir / "journal.jsonl")
        self._closed = False

    def writable(self) -> bool:
        """True when the state directory currently accepts writes (health)."""
        probe = self.state_dir / ".writable_probe"
        try:
            with open(probe, "w") as fh:
                fh.write("ok")
            probe.unlink()
            return True
        except OSError:
            return False

    def info(self) -> dict:
        return {
            "state_dir": str(self.state_dir),
            "results": self.results.info(),
            "artifacts": self.artifacts.info(),
            "journal": self.journal.info(),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.results.close()
        self.journal.close()

    def __enter__(self) -> "ServicePersistence":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
