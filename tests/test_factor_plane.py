"""Tests for the shared-memory factor plane.

The plane serialises cached factor payloads into
``multiprocessing.shared_memory`` segments (:class:`FactorPlane` /
:func:`attach_shared_factor`) so parallel-extractor workers attach zero-copy
instead of refactoring.  These tests pin the payload round-trips for every
factor kind, the worker attach/rebuild counters surfaced through
``SolveStats.merge``, and that no ``/dev/shm`` segment outlives the pool.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve
from scipy.sparse import diags, eye as speye, kron
from scipy.sparse.linalg import splu

from repro import (
    CountingSolver,
    FactorPlane,
    ParallelExtractor,
    SharedSparseLU,
    SolverSpec,
    SubstrateProfile,
    attach_shared_factor,
    extract_dense,
    factor_cache,
    regular_grid,
)
from repro.substrate.factor_cache import _flatten_factor, _rebuild_factor


@pytest.fixture(scope="module")
def tiny_layout():
    return regular_grid(n_side=4, size=64.0, fill=0.5)


def _profile(grounded: bool = True) -> SubstrateProfile:
    return SubstrateProfile.two_layer_example(size=64.0, grounded_backplane=grounded)


def _bem_spec(layout, grounded=True, **options):
    options.setdefault("max_panels", 32)
    options.setdefault("fft_workers", 1)
    return SolverSpec.bem(layout, _profile(grounded), **options)


def _fd_spec(layout, grounded=True, **options):
    options.setdefault("nx", 8)
    options.setdefault("ny", 8)
    options.setdefault("planes_per_layer", 2)
    options.setdefault("fft_workers", 1)
    return SolverSpec.fd(layout, _profile(grounded), **options)


def _spd(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _sparse_system(m: int = 6):
    one = diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    i = speye(m)
    return (
        kron(kron(one, i), i) + kron(kron(i, one), i) + kron(kron(i, i), one)
        + speye(m**3)
    ).tocsc()


def _shm_entries() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


# ---------------------------------------------------------- payload round-trip
def test_flatten_rebuild_chol_factor():
    a = _spd(12)
    factor = ("chol", cho_factor(a, lower=True))
    meta, arrays = _flatten_factor(factor)
    rebuilt = _rebuild_factor(meta, [a.copy() for a in arrays])
    b = np.arange(12.0)
    ref = cho_solve(factor[1], b)
    assert np.allclose(cho_solve(rebuilt[1], b), ref, atol=1e-14)


def test_flatten_rebuild_schur_factor():
    a = _spd(10)
    chol = cho_factor(a, lower=True)
    ones = np.ones(10)
    w = cho_solve(chol, ones)
    s = float(ones @ w)
    meta, arrays = _flatten_factor(("schur", chol, w, s))
    rebuilt = _rebuild_factor(meta, arrays)
    assert rebuilt[0] == "schur"
    assert rebuilt[3] == pytest.approx(s)
    assert np.allclose(rebuilt[2], w)


def test_flatten_rebuild_bordered_factor():
    a = _spd(9)
    lu, piv = lu_factor(a)
    meta, arrays = _flatten_factor(("bordered", lu, piv))
    rebuilt = _rebuild_factor(meta, arrays)
    b = np.arange(9.0)
    assert np.allclose(lu_solve((rebuilt[1], rebuilt[2]), b), lu_solve((lu, piv), b))


def test_flatten_rejects_unknown_kinds():
    with pytest.raises(TypeError):
        _flatten_factor(("mystery", np.eye(2)))
    with pytest.raises(TypeError):
        _flatten_factor(object())


def test_shared_sparse_lu_matches_superlu():
    a = _sparse_system()
    lu = splu(a, options={"Equil": False})
    shared = SharedSparseLU.from_superlu(lu)
    rng = np.random.default_rng(1)
    b = rng.standard_normal((a.shape[0], 4))
    assert np.allclose(shared.solve(b), lu.solve(b), atol=1e-12)
    # vector RHS keeps its shape
    assert shared.solve(b[:, 0]).shape == (a.shape[0],)
    # tocsc() may drop explicit zeros, so the component nnz is a lower bound
    assert 0 < shared.nnz <= lu.nnz
    assert shared.nbytes > 0


def test_shared_sparse_lu_roundtrips_through_flatten():
    a = _sparse_system(5)
    lu = splu(a, options={"Equil": False})
    meta, arrays = _flatten_factor(lu)  # native SuperLU flattens too
    rebuilt = _rebuild_factor(meta, arrays)
    assert isinstance(rebuilt, SharedSparseLU)
    b = np.arange(float(a.shape[0]))
    assert np.allclose(rebuilt.solve(b), lu.solve(b), atol=1e-12)


# ------------------------------------------------------------- plane lifecycle
def test_plane_publish_attach_roundtrip_and_unlink():
    a = _spd(16, seed=3)
    factor = ("chol", cho_factor(a, lower=True))
    before = _shm_entries()
    plane = FactorPlane()
    handle = plane.publish(("bem_direct_factor", "k"), factor)
    assert handle.nbytes >= a.nbytes
    # the handle pickles (it rides in the pool's initargs)
    handle = pickle.loads(pickle.dumps(handle))
    attached, segment = attach_shared_factor(handle)
    b = np.linspace(0.0, 1.0, 16)
    assert np.allclose(cho_solve(attached[1], b), cho_solve(factor[1], b))
    # attached views are read-only: the factor is shared physical memory
    with pytest.raises((ValueError, RuntimeError)):
        attached[1][0][0, 0] = 1.0
    segment.close()
    plane.unlink()
    plane.unlink()  # idempotent
    assert _shm_entries() <= before


@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "floating"])
def test_attached_factor_keeps_fortran_order_and_answers(tiny_layout, grounded):
    """The plane ships a dense factor without a C-ordered copy: the attached
    factor is Fortran-ordered, so LAPACK reads it in place on every block,
    and it answers bit for bit like the built one."""
    solver = _bem_spec(tiny_layout, grounded, use_factor_cache=False).build()
    assert solver.prepare_direct()
    built = solver.direct_factor
    with FactorPlane() as plane:
        attached, segment = attach_shared_factor(plane.publish(("k",), built))
        try:
            assert attached[0] == built[0]
            c = attached[1][0]
            assert c.flags.f_contiguous and not c.flags.writeable
            b = np.random.default_rng(2).standard_normal((c.shape[0], 3))
            assert np.array_equal(cho_solve(attached[1], b), cho_solve(built[1], b))
        finally:
            segment.close()


def test_attach_refuses_a_non_finite_payload():
    """A segment whose factor holds a NaN fails attach; the worker then
    factors for itself instead of solving on it."""
    c, lower = cho_factor(_spd(8), lower=True)
    c[3, 3] = np.nan
    with FactorPlane() as plane:
        handle = plane.publish(("k",), ("chol", (c, lower)))
        with pytest.raises(ValueError, match="NaN or inf"):
            attach_shared_factor(handle)


def test_plane_context_manager_unlinks():
    before = _shm_entries()
    with FactorPlane() as plane:
        plane.publish(("k",), ("chol", cho_factor(_spd(6), lower=True)))
        assert _shm_entries() != before or not os.path.isdir("/dev/shm")
    assert _shm_entries() <= before


# --------------------------------------------------- extractor worker counters
@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "floating"])
def test_workers_attach_with_zero_rebuilds_on_warm_parent(tiny_layout, grounded):
    """The tentpole gate: with a shared plane, a warm parent cache means no
    worker ever refactors — every worker attaches exactly once."""
    spec = _bem_spec(tiny_layout, grounded, rtol=1e-10)
    serial = spec.build()
    g_serial = extract_dense(serial)
    with ParallelExtractor(
        spec, n_workers=2, prepare_direct=True, min_parallel_columns=2
    ) as ex:
        ex.warm_up()
        counting = CountingSolver(ex)
        g_parallel = extract_dense(counting)
        stats = ex.stats
    assert stats.n_factor_attaches == 2
    assert stats.n_factor_rebuilds == 0
    assert counting.solve_count == tiny_layout.n_contacts
    scale = np.abs(g_serial).max()
    assert np.abs(g_parallel - g_serial).max() <= 1e-10 * scale


def test_workers_attach_fd_backend(tiny_layout):
    spec = _fd_spec(tiny_layout, rtol=1e-10)
    serial = spec.build()
    g_serial = extract_dense(serial)
    with ParallelExtractor(
        spec, n_workers=2, prepare_direct=True, min_parallel_columns=2
    ) as ex:
        ex.warm_up()
        g_parallel = ex.extract_dense()
        stats = ex.stats
    assert stats.n_factor_attaches == 2
    assert stats.n_factor_rebuilds == 0
    assert np.abs(g_parallel - g_serial).max() <= 1e-10 * np.abs(g_serial).max()


def test_share_factors_off_means_no_attaches(tiny_layout):
    """Without the plane (and without a consultable cache) every worker pays
    its own factorisation, visible in the merged rebuild counter."""
    spec = _bem_spec(tiny_layout, rtol=1e-10, use_factor_cache=False)
    with ParallelExtractor(
        spec,
        n_workers=2,
        prepare_direct=True,
        min_parallel_columns=2,
        share_factors=False,
    ) as ex:
        ex.warm_up()
        ex.extract_dense()
        stats = ex.stats
    assert stats.n_factor_attaches == 0
    assert stats.n_factor_rebuilds == 2


def test_published_segments_unlinked_on_close(tiny_layout):
    """No shared-memory entry may outlive the extractor (leak check)."""
    before = _shm_entries()
    spec = _bem_spec(tiny_layout, rtol=1e-10)
    ex = ParallelExtractor(spec, n_workers=2, prepare_direct=True, min_parallel_columns=2)
    ex.warm_up()
    assert ex.published_factor_keys  # the parent actually published
    ex.extract_dense()
    ex.close()
    assert _shm_entries() <= before
    ex.close()  # idempotent


def test_no_publish_when_factor_cache_disabled(tiny_layout):
    """A spec that disables the factor cache cannot receive attachments, so
    the parent must not publish a plane for it."""
    spec = _bem_spec(tiny_layout, rtol=1e-10, use_factor_cache=False)
    with ParallelExtractor(spec, n_workers=2, prepare_direct=True) as ex:
        ex.warm_up()
        assert ex.published_factor_keys == []


def test_attached_factor_lands_in_worker_cache_key(tiny_layout):
    """The plane publishes under the solver's public factor_cache_key, which
    is what the worker's prepare consults."""
    spec = _bem_spec(tiny_layout, rtol=1e-10)
    solver = spec.build()
    assert solver.prepare_direct()
    key = solver.factor_cache_key
    assert factor_cache().contains(key)
    with ParallelExtractor(spec, n_workers=2, prepare_direct=True) as ex:
        ex.warm_up()
        assert ex.published_factor_keys == [key]
