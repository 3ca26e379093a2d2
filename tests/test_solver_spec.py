"""Tests for :class:`SolverSpec`, the engines built from it, and
:meth:`SolveStats.merge`.

``merge`` folds several solvers' statistics into one report (the service
aggregates its engines with it): counts add, and the mean stays per
iterative solve.  A spec refuses a kind it cannot build, and ``build``
overrides win over the stored options.  The engine the service solves on
-- the spec's solver with its direct factor prepared, as
:meth:`~repro.service.scheduler.ExtractorPool.get` builds it -- keeps a
dense spec's matrix, a floating backplane's gauge constants, the merged
solve totals and the wavelet pipeline's solve count of a cold serial
solver.  That its columns and solve counts match every other path is
checked by ``tests/test_oracle.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import (
    CountingSolver,
    SolveStats,
    SolverSpec,
    SquareHierarchy,
    SubstrateProfile,
    extract_dense,
    regular_grid,
)
from repro.core.wavelet import WaveletSparsifier
from repro.service import JobRequest, Scheduler
from repro.service.scheduler import ExtractorPool


@pytest.fixture(scope="module")
def tiny_layout():
    return regular_grid(n_side=4, size=64.0, fill=0.5)


def _profile(grounded: bool = True) -> SubstrateProfile:
    return SubstrateProfile.two_layer_example(size=64.0, grounded_backplane=grounded)


def _bem_spec(layout, grounded=True, **options):
    options.setdefault("max_panels", 32)
    options.setdefault("fft_workers", 1)
    return SolverSpec.bem(layout, _profile(grounded), **options)


def _engine(spec, pool=None):
    """The warm engine the service solves ``spec`` on."""
    pool = pool if pool is not None else ExtractorPool()
    return pool.get(spec.fingerprint, spec)


# ------------------------------------------------------------------ SolveStats
def test_solve_stats_merge_adds_counts_and_keeps_iterative_mean():
    a = SolveStats()
    a.record(10)
    a.record(20)
    a.record_direct(5)
    b = SolveStats()
    b.record(30)
    b.record_direct(7)
    merged = a.merge(b)
    assert merged is a
    assert a.n_iterative_solves == 3
    assert a.n_direct_solves == 12
    assert a.n_solves == 15
    assert a.total_iterations == 60
    # mean stays per-iterative-solve: direct solves never dilute it
    assert a.mean_iterations == 20.0


def test_solve_stats_merge_empty_is_identity():
    a = SolveStats()
    a.record(4)
    a.merge(SolveStats())
    assert a.as_dict() == {
        "n_solves": 1,
        "n_iterative_solves": 1,
        "n_direct_solves": 0,
        "total_iterations": 4,
        "mean_iterations": 4.0,
        "n_factor_rebuilds": 0,
    }


# ------------------------------------------------------------------ SolverSpec
def test_solver_spec_validation(tiny_layout):
    with pytest.raises(ValueError):
        SolverSpec("quantum", tiny_layout, _profile())
    with pytest.raises(ValueError):
        SolverSpec("bem", tiny_layout, None)
    with pytest.raises(ValueError):
        SolverSpec("dense", tiny_layout, None)


def test_solver_spec_build_overrides(tiny_layout):
    spec = _bem_spec(tiny_layout, rtol=1e-6)
    solver = spec.build(rtol=1e-10)
    assert solver.rtol == 1e-10
    assert solver.operator.fft_workers is None  # fft_workers=1 resolves to None


# --------------------------------------------------------------- equivalence
def test_parallel_dense_spec_and_pickled_fallback(tiny_layout):
    rng = np.random.default_rng(0)
    n = tiny_layout.n_contacts
    a = rng.standard_normal((n, n))
    g = a @ a.T + n * np.eye(n)
    spec = pickle.loads(pickle.dumps(SolverSpec.dense(g, tiny_layout)))
    engine = _engine(spec)
    out = extract_dense(engine)
    assert np.allclose(out, g, rtol=0.0, atol=1e-12 * np.abs(g).max())
    # a dense engine carries stats it never increments, like every engine
    assert engine.stats.n_solves == 0


def test_parallel_gauge_constants_match_serial(tiny_layout):
    spec = _bem_spec(tiny_layout, grounded=False, rtol=1e-10)
    serial = spec.build()
    v = np.eye(tiny_layout.n_contacts)
    serial.solve_many(v)
    gauges_serial = serial.last_gauge_constants
    engine = _engine(spec)
    engine.solve_many(v)
    gauges_engine = engine.last_gauge_constants
    assert gauges_engine is not None
    scale = np.abs(gauges_serial).max()
    assert np.abs(gauges_engine - gauges_serial).max() <= 1e-8 * scale


# ---------------------------------------------------------------- accounting
def test_parallel_stats_merge_matches_serial_totals(tiny_layout):
    """Sharding the columns over two engines and merging their stats
    reports the serial totals."""
    spec = _bem_spec(tiny_layout, rtol=1e-10)
    serial = spec.build()
    extract_dense(serial)
    merged = SolveStats()
    for block in np.array_split(np.eye(tiny_layout.n_contacts), 2, axis=1):
        engine = _engine(spec)
        engine.solve_many(block)
        merged.merge(engine.stats)
    assert merged.n_solves == serial.stats.n_solves == tiny_layout.n_contacts


def test_wavelet_extraction_through_parallel_extractor(tiny_layout):
    """The wavelet combine-solves pipeline runs unchanged through the
    service's engine: same attributed solve count, same Gws."""
    spec = _bem_spec(tiny_layout, rtol=1e-10)
    hierarchy = SquareHierarchy(tiny_layout, max_level=2)

    serial_counting = CountingSolver(spec.build())
    rep_serial = WaveletSparsifier(hierarchy, order=2).extract(serial_counting)

    engine_counting = CountingSolver(_engine(spec))
    rep_engine = WaveletSparsifier(hierarchy, order=2).extract(engine_counting)

    assert engine_counting.solve_count == serial_counting.solve_count
    assert rep_engine.n_solves == rep_serial.n_solves
    diff = (rep_engine.gw - rep_serial.gw).toarray()
    scale = np.abs(rep_serial.gw.toarray()).max()
    assert np.abs(diff).max() <= 1e-8 * scale


# ------------------------------------------------------------------- plumbing
def test_parallel_rejects_bad_shapes_and_workers(tiny_layout):
    with pytest.raises(ValueError):
        Scheduler(n_workers=0, autostart=False)
    engine = _engine(_bem_spec(tiny_layout))
    with pytest.raises(ValueError):
        engine.solve_many(np.zeros(tiny_layout.n_contacts))
    with pytest.raises(ValueError):
        engine.solve_many(np.zeros((tiny_layout.n_contacts + 1, 3)))
    assert engine.solve_many(np.zeros((tiny_layout.n_contacts, 0))).shape == (
        tiny_layout.n_contacts,
        0,
    )


def test_inline_path_preserves_solver_iteration_history(tiny_layout):
    """Regression: the cumulative counters ``mean_iterations`` (and the FD
    solver's iteration-aware dispatch) feed on keep every block a warm
    engine ran across groups."""
    spec = _bem_spec(tiny_layout, rtol=1e-10, max_direct_panels=0)
    with Scheduler(autostart=False) as scheduler:
        for columns in ((0, 1, 2, 3), (4, 5, 6, 7)):
            scheduler.submit(JobRequest(spec, columns=columns))
            scheduler.step()
        engine = _engine(spec, scheduler.pool)
        assert scheduler.pool.info()["built"] == 1
    stats = engine.stats
    assert stats.n_solves == stats.n_iterative_solves == 8
    assert stats.total_iterations > 0
    assert stats.mean_iterations == stats.total_iterations / 8
    assert engine.mean_iterations_per_solve() == stats.mean_iterations


def test_warm_up_builds_workers_and_close_is_idempotent(tiny_layout):
    spec = _bem_spec(tiny_layout)
    pool = ExtractorPool()
    engine = _engine(spec, pool)
    # warmed on build: the direct factor is held before the first request
    assert engine._factor_available()
    assert engine.stats.n_solves == 0
    assert pool.info()["built"] == 1
    assert _engine(spec, pool) is engine
    out = engine.solve_many(np.eye(tiny_layout.n_contacts))
    assert out.shape == (tiny_layout.n_contacts, tiny_layout.n_contacts)
    assert engine.stats.n_direct_solves == tiny_layout.n_contacts
    pool.close()
    pool.close()
    assert pool.info()["live"] == 0
