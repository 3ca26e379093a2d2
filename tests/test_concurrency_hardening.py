"""Targeted regression tests for the fixes reprolint's first sweep forced.

Each test pins one concrete repair: an error path that used to leak a
resource (sqlite connection, tiled scratch file, shared-memory segment) and
a counter that used to be bumped outside its lock.
"""

from __future__ import annotations

import sqlite3
from multiprocessing import shared_memory

import numpy as np
import pytest

from importlib import import_module

import repro.service.persistence as persistence_mod
import repro.substrate.tiled as tiled_mod

# ``repro.substrate`` re-exports a ``factor_cache()`` function under the same
# name as the module, so a plain ``import ... as`` would bind the function
factor_cache_mod = import_module("repro.substrate.factor_cache")
from repro import regular_grid
from repro.service import JobRequest, Scheduler
from repro.service.persistence import JobJournal, SqliteResultBackend
from repro.substrate.factor_cache import FactorPlane, SharedFactorHandle
from repro.substrate.parallel import SolverSpec
from repro.substrate.tiled import TiledCholeskyFactor


@pytest.fixture(scope="module")
def tiny_spec():
    """4-contact dense spec: cheap enough to solve inside a unit test."""
    layout = regular_grid(n_side=2, size=128.0, fill=0.5)
    g = 4.0 * np.eye(4) - 0.5 * (np.ones((4, 4)) - np.eye(4))
    return SolverSpec.dense(g, layout)


# ------------------------------------------------------- sqlite backend init
class _FailingConn:
    def __init__(self):
        self.closed = False

    def execute(self, *args):
        raise sqlite3.OperationalError("disk I/O error")

    def close(self):
        self.closed = True


def test_sqlite_backend_init_failure_closes_connection(tmp_path, monkeypatch):
    fake = _FailingConn()
    monkeypatch.setattr(
        persistence_mod.sqlite3, "connect", lambda *args, **kwargs: fake
    )
    with pytest.raises(sqlite3.OperationalError):
        SqliteResultBackend(tmp_path / "results.sqlite")
    assert fake.closed, "half-initialised connection leaked"


# -------------------------------------------------------- journal corruption
def test_journal_recover_counts_corrupt_lines_under_lock(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text("this is not a journal entry\n", encoding="utf-8")
    journal = JobJournal(path)
    try:
        with pytest.warns(RuntimeWarning, match="corrupt journal entry"):
            replay, known_ids, max_seq = journal.recover()
        assert replay == [] and known_ids == set() and max_seq == 0
        assert journal.info()["corrupt_skipped"] == 1
    finally:
        journal.close()


# ------------------------------------------------------- tiled scratch files
def test_tiled_scratch_file_unlinked_when_memmap_fails(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TILED_SCRATCH_DIR", str(tmp_path))

    def failing_memmap(*args, **kwargs):
        raise OSError("cannot map scratch file")

    monkeypatch.setattr(tiled_mod.np, "memmap", failing_memmap)
    with pytest.raises(OSError, match="cannot map"):
        TiledCholeskyFactor(n=8, spill_over_bytes=0)  # forces the spill path
    assert list(tmp_path.iterdir()) == [], "orphaned mkstemp scratch file"


# -------------------------------------------------- shared-memory factor plane
@pytest.fixture
def tracked_segments(monkeypatch):
    """Route segment creation/attachment through a subclass that records
    every instance, so tests can assert release without knowing names."""
    captured = []

    class TrackingSharedMemory(shared_memory.SharedMemory):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            captured.append(self)

    monkeypatch.setattr(shared_memory, "SharedMemory", TrackingSharedMemory)
    return captured


class _UnserialisablePayload:
    """Quacks like an array for spec computation but cannot be copied into
    the segment, so publish fails after creating the shared memory."""

    shape = (2,)
    dtype = np.dtype(np.float64)
    nbytes = 16


def test_publish_failure_closes_and_unlinks_segment(monkeypatch, tracked_segments):
    bad_payload = _UnserialisablePayload()
    monkeypatch.setattr(
        factor_cache_mod, "_flatten_factor", lambda factor: ({"kind": "x"}, [bad_payload])
    )
    plane = FactorPlane()
    with pytest.raises(TypeError):
        plane.publish(("key",), object())
    assert plane._segments == []
    assert len(tracked_segments) == 1
    leaked = tracked_segments[0]
    with pytest.raises(FileNotFoundError):
        # reprolint: disable=RR200 -- asserted to raise: no segment is ever attached
        shared_memory.SharedMemory(name=leaked.name)


def test_attach_failure_closes_this_processes_mapping(monkeypatch, tracked_segments):
    owner = shared_memory.SharedMemory(create=True, size=16)
    try:
        handle = SharedFactorHandle(
            key=("key",),
            segment_name=owner.name,
            meta={"kind": "x"},
            specs=((0, (2,), "<f8"),),
            nbytes=16,
        )

        def failing_rebuild(meta, arrays):
            raise RuntimeError("torn handle")

        monkeypatch.setattr(factor_cache_mod, "_rebuild_factor", failing_rebuild)
        with pytest.raises(RuntimeError, match="torn handle"):
            factor_cache_mod.attach_shared_factor(handle)
        attached = tracked_segments[-1]
        assert attached is not owner
        assert attached.buf is None, "failed attach left its mapping open"
    finally:
        owner.close()
        owner.unlink()


# ------------------------------------------------ scheduler solve attribution
def test_attributed_solves_visible_in_stats(tiny_spec):
    scheduler = Scheduler(n_workers=1, autostart=False)
    try:
        scheduler.submit(JobRequest(tiny_spec, columns=(0, 2)))
        scheduler.step()
        stats = scheduler.stats()
        assert stats["attributed_solves"] >= 1
    finally:
        scheduler.close()
