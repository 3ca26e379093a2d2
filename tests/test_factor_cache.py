"""Tests for the process-wide cache of the solvers' direct factors.

Covers the cache mechanics (LRU eviction under a byte budget, per-kind
clearing, hit/miss counters, oversized rejection, artifact loads that hold
no lock) and the solver integrations: a second eigenfunction or
finite-difference solver over the same ``(layout, profile, grid)`` must load
its direct factor from the cache instead of rebuilding it, and dispatch must
treat a warm cache as a cached factor.  The cache holds factors only (no
eigenvalue table).  The flatten/rebuild contract behind the artifact store
must round trip every dense factor kind; FD sparse LUs are never persisted,
so an FD artifact an older release left behind is ignored and the LU is
rebuilt once.
"""

from __future__ import annotations

import gc
import json
import threading
import warnings
import weakref

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

from repro import (
    DispatchPolicy,
    EigenfunctionSolver,
    FactorCache,
    SubstrateProfile,
    extract_dense,
    factor_cache,
    factor_cache_clear,
    factor_cache_info,
    regular_grid,
    set_factor_cache_budget,
)
from repro.substrate.bem.solver import BEM_FACTOR_KIND
from repro.substrate.factor_cache import (
    FactorArtifactStore,
    _flatten_factor,
    _key_digest,
    _rebuild_factor,
)
from repro.substrate.fd import FiniteDifferenceSolver
from repro.substrate.fd.solver import FD_FACTOR_KIND


@pytest.fixture(scope="module")
def tiny_layout():
    return regular_grid(n_side=4, size=64.0, fill=0.5)


def _profile(grounded: bool = True) -> SubstrateProfile:
    return SubstrateProfile.two_layer_example(size=64.0, grounded_backplane=grounded)


@pytest.fixture(autouse=True)
def _clean_factor_kinds():
    factor_cache_clear(BEM_FACTOR_KIND)
    factor_cache_clear(FD_FACTOR_KIND)
    yield
    factor_cache_clear(BEM_FACTOR_KIND)
    factor_cache_clear(FD_FACTOR_KIND)


@pytest.fixture
def restore_cache_settings():
    """Restore the process-wide budget and detach any artifact store."""
    budget = factor_cache_info()["max_bytes"]
    yield
    set_factor_cache_budget(budget)
    factor_cache().set_artifact_store(None)


def _misses(kind: str) -> int:
    return factor_cache_info()["by_kind"].get(kind, {}).get("misses", 0)


def _direct_solver(backend: str, layout, **kwargs):
    """A small solver of either backend whose full-width blocks route direct.

    The BEM solver's explicit panel ceiling keeps the direct path open under
    the tiny budgets below; the weak Jacobi preconditioner sends the FD
    solver's wide blocks to its sparse LU.
    """
    if backend == "bem":
        kwargs.setdefault("max_direct_panels", 1 << 20)
        return EigenfunctionSolver(layout, _profile(), max_panels=32, **kwargs)
    return FiniteDifferenceSolver(
        layout, _profile(), nx=8, ny=8, planes_per_layer=2, preconditioner="jacobi", **kwargs
    )


# ------------------------------------------------------------- cache mechanics
def test_put_get_and_counters():
    cache = FactorCache(max_bytes=1 << 20)
    key = ("kind_a", "x", 1)
    assert cache.get(key) is None
    assert cache.misses == 1
    value = np.ones(8)
    assert cache.put(key, value) is value
    assert cache.get(key) is value
    assert cache.hits == 1
    info = cache.cache_info()
    assert info["entries"] == 1
    assert info["by_kind"]["kind_a"]["hits"] == 1
    assert info["by_kind"]["kind_a"]["misses"] == 1


def test_byte_budget_evicts_lru():
    cache = FactorCache(max_bytes=10 * 800)  # room for 10 100-double arrays
    for i in range(12):
        cache.put(("k", i), np.zeros(100))
    info = cache.cache_info()
    assert info["bytes"] <= cache.max_bytes
    assert cache.evictions >= 2
    # the oldest entries were evicted, the newest survive
    assert cache.get(("k", 0)) is None
    assert cache.get(("k", 11)) is not None


def test_recency_refresh_protects_hot_entries():
    cache = FactorCache(max_bytes=3 * 800)
    hot = cache.put(("k", "hot"), np.zeros(100))
    for i in range(8):
        cache.put(("k", i), np.zeros(100))
        assert cache.get(("k", "hot")) is hot  # touched every round


def test_oversized_entry_is_returned_but_not_stored():
    cache = FactorCache(max_bytes=100)
    value = np.zeros(1000)
    assert cache.put(("k", "big"), value) is value
    assert cache.cache_info()["entries"] == 0
    assert cache.oversized == 1


def test_kind_clear():
    cache = FactorCache(max_bytes=1 << 20)
    for i in range(6):
        cache.put(("dropped", i), np.zeros(4))
        cache.put(("kept", i), np.zeros(4))
    cache.clear("dropped")
    by_kind = cache.cache_info()["by_kind"]
    assert "dropped" not in by_kind
    assert by_kind["kept"]["entries"] == 6
    assert all(cache.contains(("kept", i)) for i in range(6))


def test_contains_is_counter_neutral():
    cache = FactorCache(max_bytes=1 << 20)
    cache.put(("k", 1), np.zeros(4))
    before = (cache.hits, cache.misses)
    assert cache.contains(("k", 1))
    assert not cache.contains(("k", 2))
    assert (cache.hits, cache.misses) == before


def test_set_budget_evicts_immediately():
    cache = FactorCache(max_bytes=1 << 20)
    for i in range(4):
        cache.put(("k", i), np.zeros(100))
    cache.set_budget(2 * 800)
    assert cache.cache_info()["bytes"] <= 2 * 800


def test_get_or_build_builds_once():
    cache = FactorCache(max_bytes=1 << 20)
    calls = []

    def builder():
        calls.append(1)
        return np.zeros(4)

    first = cache.get_or_build(("k", 1), builder)
    again = cache.get_or_build(("k", 1), builder)
    assert first is again
    assert len(calls) == 1


def test_artifact_load_does_not_stall_other_lookups():
    """While one factor loads from disk, a lookup of another, cached key
    returns at once: the load holds no cache lock."""
    loading, release = threading.Event(), threading.Event()

    class SlowStore:
        def handles(self, key):
            return True

        def load(self, key):
            loading.set()
            release.wait(timeout=10.0)
            return None

    cache = FactorCache(max_bytes=1 << 20)
    warm = cache.put(("k", "warm"), np.zeros(4))
    cache.set_artifact_store(SlowStore())
    loader = threading.Thread(target=cache.get, args=(("k", "cold"),), daemon=True)
    found = []
    reader = threading.Thread(target=lambda: found.append(cache.get(("k", "warm"))), daemon=True)
    try:
        loader.start()
        assert loading.wait(timeout=5.0)
        reader.start()
        reader.join(timeout=1.0)
        assert found and found[0] is warm
    finally:
        release.set()
        loader.join(timeout=10.0)
        reader.join(timeout=10.0)
    assert (cache.hits, cache.misses, cache.artifact_misses) == (1, 1, 1)


# -------------------------------------------------------- layout fingerprints
def test_layout_fingerprint_keys_on_geometry_not_names(tiny_layout):
    same = regular_grid(n_side=4, size=64.0, fill=0.5)
    assert tiny_layout.fingerprint == same.fingerprint
    other = regular_grid(n_side=4, size=64.0, fill=0.4)
    assert tiny_layout.fingerprint != other.fingerprint
    assert hash(tiny_layout.fingerprint) == hash(same.fingerprint)


# ------------------------------------------------------- solver integrations
def test_bem_factor_shared_across_solver_instances(tiny_layout):
    def build():
        return EigenfunctionSolver(
            tiny_layout,
            _profile(),
            max_panels=32,
            dispatch=DispatchPolicy(force_path="direct"),
        )

    first = build()
    assert first.prepare_direct()
    # the cache holds factors only: the operator built its own eigenvalue table
    assert "eigenvalue_table" not in factor_cache_info()["by_kind"]
    misses_after_build = factor_cache_info()["by_kind"][BEM_FACTOR_KIND]["misses"]
    second = build()
    assert second.prepare_direct()
    # the second solver loaded the cached factor: identical object, no rebuild
    assert second.direct_factor is not None
    assert second.direct_factor is first.direct_factor
    assert second.stats.n_factor_rebuilds == 0
    info = factor_cache_info()["by_kind"][BEM_FACTOR_KIND]
    assert info["misses"] == misses_after_build
    assert info["hits"] >= 1
    # and the solves agree with a cache-free solver
    g_cached = extract_dense(second)
    clean = EigenfunctionSolver(
        tiny_layout,
        _profile(),
        max_panels=32,
        dispatch=DispatchPolicy(force_path="direct"),
        use_factor_cache=False,
    )
    g_clean = extract_dense(clean)
    assert np.allclose(g_cached, g_clean, rtol=0.0, atol=1e-10 * np.abs(g_clean).max())


def test_bem_dispatch_sees_warm_cache_as_cached_factor(tiny_layout):
    warmer = EigenfunctionSolver(tiny_layout, _profile(), max_panels=32)
    assert warmer.prepare_direct()
    fresh = EigenfunctionSolver(tiny_layout, _profile(), max_panels=32)
    # the fresh solver has no factor of its own: it sees the warmer's
    assert fresh.direct_factor is warmer.direct_factor
    assert fresh._factor_available()
    # a narrow block that would normally stay iterative now routes direct
    fresh.solve_many(np.eye(tiny_layout.n_contacts)[:, :1])
    assert fresh.last_dispatch.path == "direct"
    assert fresh.last_dispatch.reason == "cached factor"
    assert fresh.stats.n_factor_rebuilds == 0


def test_bem_use_factor_cache_false_is_isolated(tiny_layout):
    warmer = EigenfunctionSolver(tiny_layout, _profile(), max_panels=32)
    assert warmer.prepare_direct()
    private = EigenfunctionSolver(
        tiny_layout, _profile(), max_panels=32, use_factor_cache=False
    )
    assert not private._factor_available()
    assert private.prepare_direct()
    assert private.direct_factor is not None
    assert private.direct_factor is not warmer.direct_factor


def _cache_is_the_factors_only_owner(backend: str, layout) -> None:
    solver = _direct_solver(backend, layout, dispatch=DispatchPolicy(force_path="direct"))
    kind = solver.factor_cache_key[0]
    assert solver.prepare_direct()
    # a SuperLU cannot be weakly referenced: for the FD solver the counts and
    # direct_factor below show that no reference outlived the cache's
    array = weakref.ref(solver.direct_factor[1][0]) if backend == "bem" else None
    v = np.random.default_rng(5).standard_normal((layout.n_contacts, 6))
    first = solver.solve_many(v)
    assert solver.stats.n_factor_rebuilds == 1
    misses = _misses(kind)

    factor_cache_clear()
    gc.collect()
    assert array is None or array() is None
    assert solver.direct_factor is None

    again = solver.solve_many(v)
    assert solver.last_dispatch.path == "direct"
    assert solver.stats.n_factor_rebuilds == 2
    assert _misses(kind) == misses + 1
    assert np.allclose(again, first, rtol=0.0, atol=1e-12 * np.abs(first).max())


def test_bem_cache_is_the_factors_only_owner(tiny_layout):
    """No solver pins a factor the cache holds: clearing the cache frees it,
    and the next direct block rebuilds it, counted like any build."""
    _cache_is_the_factors_only_owner("bem", tiny_layout)


def test_fd_cache_is_the_factors_only_owner(tiny_layout):
    """The FD solver's sparse LU follows the same rule as the dense factor."""
    _cache_is_the_factors_only_owner("fd", tiny_layout)


def _oversized_factor_is_held_not_rebuilt_per_block(backend: str, layout) -> None:
    set_factor_cache_budget(1024)  # far below either backend's factor (BEM: 32 KiB)
    solver = _direct_solver(backend, layout)
    oversized = factor_cache_info()["oversized"]
    eye = np.eye(layout.n_contacts)
    for _ in range(2):
        solver.solve_many(eye)
        assert solver.last_dispatch.path == "direct"
    assert solver.stats.n_factor_rebuilds == 1
    assert solver.stats.n_direct_solves == 2 * layout.n_contacts
    assert factor_cache_info()["oversized"] == oversized + 1
    assert not factor_cache().contains(solver.factor_cache_key)


def test_bem_oversized_factor_is_held_not_rebuilt_per_block(
    tiny_layout, restore_cache_settings
):
    """A factor the cache refuses stays with its solver for every block."""
    _oversized_factor_is_held_not_rebuilt_per_block("bem", tiny_layout)


def test_fd_oversized_factor_is_held_not_rebuilt_per_block(
    tiny_layout, restore_cache_settings
):
    """A sparse LU the cache refuses stays with its solver for every block."""
    _oversized_factor_is_held_not_rebuilt_per_block("fd", tiny_layout)


def test_bem_oversized_artifact_is_held_not_reloaded_per_block(
    tiny_layout, tmp_path, restore_cache_settings
):
    """A factor loaded from the artifact store but too large for the RAM
    budget is held by its solver, not read back from disk per block."""
    store = FactorArtifactStore(tmp_path)
    factor_cache().set_artifact_store(store)
    warmer = _direct_solver("bem", tiny_layout)
    assert warmer.prepare_direct()
    assert store.info()["saves"] == 1
    factor_cache_clear(BEM_FACTOR_KIND)
    set_factor_cache_budget(1024)

    solver = _direct_solver("bem", tiny_layout)
    eye = np.eye(tiny_layout.n_contacts)
    for _ in range(2):
        solver.solve_many(eye)
        assert solver.last_dispatch.path == "direct"
    assert solver.stats.n_factor_rebuilds == 0
    assert store.info()["hits"] == 1
    assert solver.direct_factor is not None
    assert not factor_cache().contains(solver.factor_cache_key)


def _plant_older_fd_artifact(store: FactorArtifactStore, solver) -> None:
    """Write the artifact an older release persisted for an FD sparse LU:
    its eight component arrays under the digest of the FD factor key."""
    lu = solver._build_direct_factor()
    lower, upper = lu.L.tocsc(), lu.U.tocsc()
    arrays = [lower.data, lower.indices, lower.indptr]
    arrays += [upper.data, upper.indices, upper.indptr, lu.perm_r, lu.perm_c]
    digest = _key_digest(solver.factor_cache_key)
    with open(store.root / f"{digest}.npz", "wb") as fh:
        np.savez(fh, **{f"a{i}": a for i, a in enumerate(arrays)})
    doc = {
        # the one place the retired format's name appears: it is what the
        # older release wrote, and this release must never read it
        "meta": {"factor": "sparse_lu", "shape": list(lu.shape)},
        "key": repr(solver.factor_cache_key),
        "n_arrays": len(arrays),
        "nbytes": int(sum(a.nbytes for a in arrays)),
    }
    (store.root / f"{digest}.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "floating"])
def test_restart_rebuilds_fd_lu_and_ignores_older_fd_artifact(
    tiny_layout, tmp_path, grounded, restore_cache_settings
):
    """After a restart only the dense BEM factor comes from disk.  An FD
    artifact an older release wrote is never read (no warning, no store
    hit): the FD solver rebuilds its LU once, and both answer like a
    forced-iterative reference."""
    profile = _profile(grounded)
    fd = {"nx": 8, "ny": 8, "planes_per_layer": 2, "rtol": 1e-13}
    bem = {"max_panels": 32, "rtol": 1e-13}
    direct = DispatchPolicy(force_path="direct")
    store = FactorArtifactStore(tmp_path)
    factor_cache().set_artifact_store(store)
    assert EigenfunctionSolver(tiny_layout, profile, dispatch=direct, **bem).prepare_direct()
    fd_solver = FiniteDifferenceSolver(tiny_layout, profile, dispatch=direct, **fd)
    assert fd_solver.prepare_direct()
    assert store.info()["saves"] == 1  # the BEM factor only
    assert not store.contains(fd_solver.factor_cache_key)
    _plant_older_fd_artifact(store, fd_solver)
    assert store.contains(fd_solver.factor_cache_key)
    factor_cache_clear()  # a restarted process holds no RAM factors
    misses = store.info()["misses"]  # the first BEM lookup's

    v = np.random.default_rng(11).standard_normal((tiny_layout.n_contacts, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fd_solver = FiniteDifferenceSolver(tiny_layout, profile, dispatch=direct, **fd)
        fd_out = fd_solver.solve_many(v)
        assert fd_solver.stats.n_factor_rebuilds == 1
        assert (store.info()["hits"], store.info()["misses"]) == (0, misses)
        bem_solver = EigenfunctionSolver(tiny_layout, profile, dispatch=direct, **bem)
        bem_out = bem_solver.solve_many(v)
        assert bem_solver.stats.n_factor_rebuilds == 0
        assert (store.info()["hits"], store.info()["misses"]) == (1, misses)

    iterative = DispatchPolicy(force_path="iterative")
    for out, reference in (
        (fd_out, FiniteDifferenceSolver(tiny_layout, profile, dispatch=iterative, **fd)),
        (bem_out, EigenfunctionSolver(tiny_layout, profile, dispatch=iterative, **bem)),
    ):
        expected = reference.solve_many(v)
        assert reference.stats.n_direct_solves == 0
        scale = np.abs(expected).max()
        assert np.allclose(out, expected, rtol=0.0, atol=1e-10 * scale)


def _float_arrays(factor) -> list[np.ndarray]:
    """Every float ndarray of a dense factor tuple, nested tuples included."""
    found = []
    for part in factor:
        if isinstance(part, tuple):
            found += _float_arrays(part)
        elif isinstance(part, np.ndarray) and part.dtype.kind == "f":
            found.append(part)
    return found


@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "floating"])
def test_bem_built_factor_is_read_only(tiny_layout, grounded):
    """Checked once when built, the factor is sealed: its block solves skip
    the per-block rescan, so nothing may write it afterwards."""
    solver = EigenfunctionSolver(tiny_layout, _profile(grounded), max_panels=32)
    assert solver.prepare_direct()
    factor = solver.direct_factor
    assert factor[0] == ("chol" if grounded else "schur")
    arrays = _float_arrays(factor)
    assert len(arrays) == (1 if grounded else 2)  # c, plus w for the Schur kind
    for array in arrays:
        assert not array.flags.writeable


@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "floating"])
def test_bem_artifact_round_trip_keeps_fortran_order(
    tiny_layout, tmp_path, grounded, restore_cache_settings
):
    """A factor loaded from the artifact store is Fortran-ordered like the
    built one (LAPACK never copies it per block), read-only, and answers
    bit for bit the same."""
    store = FactorArtifactStore(tmp_path)
    factor_cache().set_artifact_store(store)

    def build():
        return EigenfunctionSolver(
            tiny_layout,
            _profile(grounded),
            max_panels=32,
            dispatch=DispatchPolicy(force_path="direct"),
        )

    v = np.random.default_rng(3).standard_normal((tiny_layout.n_contacts, 5))
    built = build()
    expected = built.solve_many(v)
    assert store.info()["saves"] == 1
    factor_cache_clear(BEM_FACTOR_KIND)

    loaded = build()
    got = loaded.solve_many(v)
    assert loaded.stats.n_factor_rebuilds == 0
    assert store.info()["hits"] == 1
    c = loaded.direct_factor[1][0]
    assert c.flags.f_contiguous
    for array in _float_arrays(loaded.direct_factor):
        assert not array.flags.writeable
    assert np.array_equal(got, expected)


def test_bem_old_layout_artifact_loads_fortran_ordered(tiny_layout, tmp_path):
    """An artifact written before factors shipped transposed holds a
    C-ordered copy and no flag: it still loads, converted once."""
    solver = EigenfunctionSolver(tiny_layout, _profile(), max_panels=32, use_factor_cache=False)
    assert solver.prepare_direct()
    c, lower = solver.direct_factor[1]
    store = FactorArtifactStore(tmp_path)
    key = solver.factor_cache_key
    meta_path, payload_path = store._paths(key)
    with open(payload_path, "wb") as fh:
        np.savez(fh, a0=np.ascontiguousarray(c))
    doc = {
        "meta": {"factor": "chol", "lower": bool(lower)},
        "key": repr(key),
        "n_arrays": 1,
        "nbytes": int(c.nbytes),
    }
    meta_path.write_text(json.dumps(doc))

    loaded = store.load(key)
    assert loaded[0] == "chol"
    assert loaded[1][0].flags.f_contiguous
    b = np.linspace(-1.0, 1.0, c.shape[0])
    assert np.array_equal(cho_solve(loaded[1], b), cho_solve((c, lower), b))


def test_fd_factor_shared_across_engines(tiny_layout):
    def build(**kwargs):
        return FiniteDifferenceSolver(
            tiny_layout, _profile(), nx=8, ny=8, planes_per_layer=2, **kwargs
        )

    first = build()
    assert first.prepare_direct()
    # artifact stores file the LU under this key's digest: it must not change
    assert first.factor_cache_key == (
        FD_FACTOR_KIND,
        tiny_layout.fingerprint,
        _profile().cache_key,
        8,
        8,
        tuple(first.grid.hz.tolist()),
    )
    second = build()
    assert second.prepare_direct()
    assert second.direct_factor is not None
    assert second.direct_factor is first.direct_factor
    assert second.stats.n_factor_rebuilds == 0
    # a cache-free solver factors privately
    private = build(use_factor_cache=False)
    assert private.prepare_direct()
    assert private.direct_factor is not None
    assert private.direct_factor is not first.direct_factor


def test_fd_direct_engine_solves_match_iterative(tiny_layout):
    solver = FiniteDifferenceSolver(
        tiny_layout,
        _profile(),
        nx=8,
        ny=8,
        planes_per_layer=2,
        rtol=1e-12,
        dispatch=DispatchPolicy(force_path="direct"),
    )
    reference = FiniteDifferenceSolver(
        tiny_layout,
        _profile(),
        nx=8,
        ny=8,
        planes_per_layer=2,
        rtol=1e-12,
        dispatch=DispatchPolicy(force_path="iterative"),
    )
    v = np.random.default_rng(0).standard_normal((tiny_layout.n_contacts, 6))
    out_direct = solver.solve_many(v)
    out_iter = reference.solve_many(v)
    assert solver.last_dispatch.path == "direct"
    assert solver.stats.n_direct_solves == 6
    assert reference.stats.n_iterative_solves == 6
    scale = np.abs(out_iter).max()
    assert np.allclose(out_direct, out_iter, rtol=0.0, atol=1e-8 * scale)


@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "floating"])
def test_fd_direct_extraction_matches_iterative(tiny_layout, grounded):
    kwargs = {"nx": 8, "ny": 8, "planes_per_layer": 2, "rtol": 1e-12}
    direct = FiniteDifferenceSolver(
        tiny_layout,
        _profile(grounded),
        dispatch=DispatchPolicy(force_path="direct"),
        **kwargs,
    )
    iterative = FiniteDifferenceSolver(
        tiny_layout,
        _profile(grounded),
        dispatch=DispatchPolicy(force_path="iterative"),
        **kwargs,
    )
    g_direct = extract_dense(direct)
    g_iter = extract_dense(iterative)
    assert np.allclose(
        g_direct, g_iter, rtol=0.0, atol=1e-8 * np.abs(g_iter).max()
    )


def test_fd_adaptive_dispatch_is_iteration_aware(tiny_layout):
    """The near-exact fast-Poisson preconditioner must stay iterative; the
    weak Jacobi preconditioner must cross over to the sparse direct engine
    for a full-width extraction block."""
    fast = FiniteDifferenceSolver(
        tiny_layout, _profile(), nx=16, ny=16, planes_per_layer=2
    )
    extract_dense(fast)
    assert fast.last_dispatch.path == "iterative"
    assert fast.stats.n_direct_solves == 0

    weak = FiniteDifferenceSolver(
        tiny_layout,
        _profile(),
        nx=16,
        ny=16,
        planes_per_layer=2,
        preconditioner="jacobi",
    )
    extract_dense(weak)
    assert weak.last_dispatch.path == "direct"
    assert weak.stats.n_direct_solves == tiny_layout.n_contacts


def test_fd_node_ceiling_forces_iterative(tiny_layout):
    solver = FiniteDifferenceSolver(
        tiny_layout,
        _profile(),
        nx=8,
        ny=8,
        planes_per_layer=2,
        preconditioner="jacobi",
        dispatch=DispatchPolicy(max_direct_nodes=10),
    )
    extract_dense(solver)
    assert solver.last_dispatch.path == "iterative"
    assert "max_direct_nodes" in solver.last_dispatch.reason
    assert not solver.prepare_direct()


def test_choose_sparse_policy_unit():
    policy = DispatchPolicy()
    # weakly preconditioned wide block: direct
    wide = policy.choose_sparse(
        n_nodes=8192, n_rhs=256, expected_iterations=130.0
    )
    assert wide.path == "direct"
    # near-exact preconditioner: iterative even with a cached factor
    fast = policy.choose_sparse(
        n_nodes=8192, n_rhs=256, factor_cached=True, expected_iterations=1.0
    )
    assert fast.path == "iterative"
    # narrow cold block never factors
    narrow = policy.choose_sparse(n_nodes=8192, n_rhs=1, expected_iterations=130.0)
    assert narrow.path == "iterative"
    # failure latch and forced paths
    failed = policy.choose_sparse(
        n_nodes=8192, n_rhs=256, factor_failed=True, expected_iterations=130.0
    )
    assert failed.path == "iterative"
    forced = DispatchPolicy(force_path="direct")
    assert forced.choose_sparse(n_nodes=100, n_rhs=1).path == "direct"
    capped = DispatchPolicy(force_path="direct", max_direct_nodes=10)
    assert capped.choose_sparse(n_nodes=100, n_rhs=64).path == "iterative"


def _spd(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


# ------------------------------------------------- flatten / rebuild contract
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
