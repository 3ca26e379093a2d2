"""Targeted regression tests for the fixes reprolint's first sweep forced.

Each test pins one concrete repair: an error path that used to leak a
resource (a sqlite connection) and a counter that used to be bumped outside
its lock.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

import repro.service.persistence as persistence_mod
from repro import regular_grid
from repro.service import JobRequest, Scheduler
from repro.service.persistence import JobJournal, SqliteResultBackend
from repro.substrate.parallel import SolverSpec


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
