"""Tests for the adaptive solver-dispatch layer.

Covers the policy's routing decisions (small / wide / floating blocks, forced
paths, ceilings), the new bordered Schur-complement direct path for floating
backplanes (equivalence with single-RHS MINRES including the gauge constant
``c``), solve-accounting invariance across paths, and the separated
iterative/direct solve statistics.
"""

from __future__ import annotations

import importlib
import os
import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from repro import (
    CountingSolver,
    DispatchPolicy,
    EigenfunctionSolver,
    FiniteDifferenceSolver,
    SolveCostModel,
    SolveStats,
    SubstrateProfile,
    extract_dense,
    factor_cache_clear,
    factor_cache_info,
    regular_grid,
    resolve_fft_workers,
    set_factor_cache_budget,
)
from repro.substrate.bem.operator import SurfaceOperator
from repro.substrate.bem.solver import BEM_FACTOR_KIND


@pytest.fixture(scope="module")
def tiny_layout():
    return regular_grid(n_side=4, size=64.0, fill=0.5)


def _profile(grounded: bool) -> SubstrateProfile:
    return SubstrateProfile.two_layer_example(size=64.0, grounded_backplane=grounded)


def _solver(layout, grounded=True, **kwargs) -> EigenfunctionSolver:
    kwargs.setdefault("max_panels", 32)
    kwargs.setdefault("rtol", 1e-10)
    return EigenfunctionSolver(layout, _profile(grounded), **kwargs)


@pytest.fixture
def cold_bem_factors():
    """Start without dense BEM factors; restore the cache budget afterwards."""
    budget = factor_cache_info()["max_bytes"]
    factor_cache_clear(BEM_FACTOR_KIND)
    yield
    set_factor_cache_budget(budget)
    factor_cache_clear(BEM_FACTOR_KIND)


# ------------------------------------------------------------------ policy unit
def test_policy_narrow_block_goes_iterative():
    policy = DispatchPolicy()
    d = policy.choose(n_panels=1024, n_rhs=1, grid_points=4096, grounded=True)
    assert d.path == "iterative"


def test_policy_wide_block_goes_direct():
    policy = DispatchPolicy()
    d = policy.choose(n_panels=1024, n_rhs=256, grid_points=4096, grounded=True)
    assert d.path == "direct"
    assert d.direct_cost is not None and d.direct_cost <= d.iterative_cost


def test_policy_floating_crossover_is_earlier_than_grounded():
    """MINRES needs more iterations than CG, so the direct path should win
    for narrower floating blocks than grounded ones."""
    policy = DispatchPolicy()

    def crossover(grounded: bool) -> int:
        for k in range(1, 2049):
            if (
                policy.choose(
                    n_panels=1024, n_rhs=k, grid_points=4096, grounded=grounded
                ).path
                == "direct"
            ):
                return k
        return 2049

    assert crossover(grounded=False) < crossover(grounded=True)


def test_policy_cached_factor_prefers_direct_even_for_one_rhs():
    policy = DispatchPolicy()
    d = policy.choose(
        n_panels=1024, n_rhs=1, grid_points=4096, grounded=True, factor_cached=True
    )
    assert d.path == "direct"
    assert d.reason == "cached factor"


def test_policy_panel_ceiling_and_failure_force_iterative():
    # above the dense ceiling every width routes iterative
    policy = DispatchPolicy(max_direct_panels=100)
    for n_rhs in (2, 512, 65536):
        d = policy.choose(n_panels=101, n_rhs=n_rhs, grid_points=4096, grounded=True)
        assert d.path == "iterative"
        assert d.reason == "n_panels 101 exceeds max_direct_panels 100"
    policy = DispatchPolicy()
    d = policy.choose(
        n_panels=64, n_rhs=512, grid_points=4096, grounded=True, factor_failed=True
    )
    assert d.path == "iterative"
    # disabling the direct path forces iterative everywhere
    policy = DispatchPolicy(max_direct_panels=0)
    assert (
        policy.choose(n_panels=64, n_rhs=512, grid_points=4096, grounded=True).path
        == "iterative"
    )


def test_direct_ceiling_follows_the_live_factor_cache_budget(
    tiny_layout, cold_bem_factors
):
    """The default ceiling is the largest panel count whose factor the live
    cache would store, counted as the cache counts it; an explicit one wins."""
    assert _solver(tiny_layout).prepare_direct()
    # the bytes the cache charged for the factor: the array plus its tuples
    factor_bytes = factor_cache_info()["by_kind"][BEM_FACTOR_KIND]["bytes"]
    ncp = _solver(tiny_layout).grid.n_contact_panels
    assert factor_bytes > 8 * ncp**2
    factor_cache_clear(BEM_FACTOR_KIND)

    set_factor_cache_budget(factor_bytes - 1)
    assert DispatchPolicy().max_direct_panels == ncp - 1
    above = _solver(tiny_layout)
    assert above.max_direct_panels == ncp - 1
    assert not above.prepare_direct()
    assert DispatchPolicy(max_direct_panels=ncp).max_direct_panels == ncp
    assert _solver(tiny_layout, max_direct_panels=ncp).prepare_direct()
    factor_cache_clear(BEM_FACTOR_KIND)

    set_factor_cache_budget(factor_bytes)
    assert DispatchPolicy().max_direct_panels == ncp
    oversized = factor_cache_info()["oversized"]
    # the same solver object follows the budget at its next decision
    assert above.prepare_direct()
    assert factor_cache_info()["oversized"] == oversized
    assert factor_cache_info()["by_kind"][BEM_FACTOR_KIND]["bytes"] == factor_bytes
    assert not _solver(tiny_layout, max_direct_panels=ncp - 1).prepare_direct()
    assert not _solver(tiny_layout, max_direct_panels=0).prepare_direct()


def test_policy_force_path_overrides_model_but_not_feasibility():
    forced = DispatchPolicy(force_path="direct")
    assert forced.choose(n_panels=64, n_rhs=1, grid_points=4096, grounded=True).path == "direct"
    forced_it = DispatchPolicy(force_path="iterative")
    assert (
        forced_it.choose(n_panels=64, n_rhs=512, grid_points=4096, grounded=True).path
        == "iterative"
    )
    # a forced direct path cannot conjure a factorisation that is impossible
    capped = DispatchPolicy(force_path="direct", max_direct_panels=10)
    d = capped.choose(n_panels=64, n_rhs=512, grid_points=4096, grounded=True)
    assert d.path == "iterative"
    with pytest.raises(ValueError):
        DispatchPolicy(force_path="cholesky")


def test_every_dispatch_reason_is_pinned():
    """Every routing rule of both decision routines, with its exact reason.

    ``choose`` and ``choose_sparse`` apply the same rules in the same order:
    a forced path, then the ceiling and the failed latch, then the narrow
    cold block, then the cost comparison, the only rule that records costs.
    """
    pinned = DispatchPolicy(force_path="iterative")
    forced = DispatchPolicy(force_path="direct", max_direct_panels=8191)
    forced_capped = DispatchPolicy(force_path="direct", max_direct_panels=10, max_direct_nodes=10)
    capped = DispatchPolicy(max_direct_panels=100, max_direct_nodes=100)
    free = DispatchPolicy(max_direct_panels=8191)
    unavailable = "forced direct path unavailable "
    narrow = "block narrower than min_direct_rhs 2"
    paper = {"grid_points": 128 * 128, "grounded": True}  # the extract-paper substrate
    cases = [
        (pinned.choose(64, 512, 4096, True), "iterative", "forced"),
        (pinned.choose_sparse(100, 64), "iterative", "forced"),
        (forced.choose(64, 1, 4096, True), "direct", "forced"),
        (forced.choose_sparse(100, 1), "direct", "forced"),
        (forced_capped.choose(64, 512, 4096, True), "iterative", unavailable + "(panel ceiling)"),
        (forced_capped.choose_sparse(100, 64), "iterative", unavailable + "(node ceiling)"),
        (
            forced.choose(64, 512, 4096, True, factor_failed=True),
            "iterative",
            unavailable + "(factorisation failed)",
        ),
        (
            forced.choose_sparse(100, 64, factor_failed=True),
            "iterative",
            unavailable + "(factorisation failed)",
        ),
        (
            capped.choose(101, 512, 4096, True),
            "iterative",
            "n_panels 101 exceeds max_direct_panels 100",
        ),
        (capped.choose_sparse(101, 512), "iterative", "n_nodes 101 exceeds max_direct_nodes 100"),
        (
            free.choose(64, 512, 4096, True, factor_failed=True),
            "iterative",
            "factorisation previously failed",
        ),
        (
            free.choose_sparse(8192, 256, factor_failed=True),
            "iterative",
            "factorisation previously failed",
        ),
        (free.choose(1024, 1, 4096, True), "iterative", narrow),
        (free.choose_sparse(8192, 1, expected_iterations=130.0), "iterative", narrow),
        (free.choose(1024, 1, 4096, True, factor_cached=True), "direct", "cached factor"),
        (
            free.choose_sparse(8192, 1, factor_cached=True, expected_iterations=130.0),
            "direct",
            "cached factor",
        ),
        (free.choose(5120, 256, **paper), "direct", "crossover model"),
        (free.choose(5120, 128, **paper), "iterative", "crossover model"),
        (
            free.choose_sparse(8192, 256, expected_iterations=130.0),
            "direct",
            "sparse crossover model",
        ),
        (
            free.choose_sparse(8192, 256, factor_cached=True, expected_iterations=1.0),
            "iterative",
            "sparse crossover model",
        ),
    ]
    got = [(decision.path, decision.reason) for decision, _, _ in cases]
    assert got == [(path, reason) for _, path, reason in cases]
    for decision, _, reason in cases:
        costed = reason in ("crossover model", "sparse crossover model", "cached factor")
        assert (decision.direct_cost is not None) == costed, reason
        assert (decision.iterative_cost is not None) == costed, reason


def test_cost_model_monotone_in_rhs_width():
    model = SolveCostModel()
    narrow = model.iterative_cost(1024, 8, 4096, grounded=True)
    wide = model.iterative_cost(1024, 64, 4096, grounded=True)
    assert wide > narrow
    cached = model.direct_cost(1024, 8, 4096, factor_cached=True, grounded=True)
    fresh = model.direct_cost(1024, 8, 4096, factor_cached=False, grounded=True)
    assert cached < fresh


def test_resolve_fft_workers():
    assert resolve_fft_workers(1) is None
    assert resolve_fft_workers(4) == 4
    assert resolve_fft_workers(-1) == -1
    with pytest.raises(ValueError):
        resolve_fft_workers(0)
    resolved = resolve_fft_workers(None)
    assert resolved is None or (isinstance(resolved, int) and resolved > 1)


def test_resolve_fft_workers_follows_the_cpu_affinity(monkeypatch):
    """One allowed CPU means single-threaded transforms on a bigger host; the
    host count is the fallback only where the platform has no affinity call."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_fft_workers(None) is None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert resolve_fft_workers(None) == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert resolve_fft_workers(None) == 8


# ------------------------------------------------------- solver-level routing
def test_solver_records_dispatch_decision(tiny_layout):
    solver = _solver(tiny_layout)
    v = np.eye(tiny_layout.n_contacts)
    solver.solve_many(v)
    assert solver.last_dispatch is not None
    assert solver.last_dispatch.path in ("direct", "iterative")


def test_forced_paths_agree_with_sequential(tiny_layout):
    """Both forced paths agree with the one-vector solves.  Those run the
    iterative engine, so every answer is also held to the exact factor."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal((tiny_layout.n_contacts, 8))
    for grounded in (True, False):
        reference = _solver(tiny_layout, grounded)
        seq = np.column_stack(
            [reference.solve_currents(v[:, j]) for j in range(v.shape[1])]
        )
        scale = np.abs(seq).max()
        outs = {}
        for path in ("direct", "iterative"):
            solver = _solver(
                tiny_layout, grounded, dispatch=DispatchPolicy(force_path=path)
            )
            outs[path] = solver.solve_many(v)
            assert solver.last_dispatch.path == path
        for got in (seq, outs["iterative"]):
            assert np.allclose(got, outs["direct"], rtol=0.0, atol=1e-8 * scale), grounded
        assert np.allclose(outs["iterative"], seq, rtol=0.0, atol=1e-8 * scale), grounded


@pytest.mark.parametrize("n_side", [4, 8, 16])
def test_floating_one_vector_solve_meets_rtol(n_side):
    """A floating-backplane ``solve_currents`` at ``rtol=1e-8`` lands within
    1e-7 of max|I| of the exact bordered factor (SciPy's ``minres``, which
    stops on its own residual estimate, lands 2e-7 to 6e-6 off here)."""
    layout = regular_grid(n_side=n_side, size=128.0, fill=0.5)
    profile = SubstrateProfile.two_layer_example(size=128.0, grounded_backplane=False)
    iterative = EigenfunctionSolver(layout, profile, rtol=1e-8)
    direct = EigenfunctionSolver(
        layout, profile, rtol=1e-8, dispatch=DispatchPolicy(force_path="direct")
    )
    v = np.random.default_rng(0).standard_normal((layout.n_contacts, 2))
    exact = direct.solve_many(v)
    assert direct.stats.n_direct_solves == 2
    for j in range(v.shape[1]):
        currents = iterative.solve_currents(v[:, j])
        error = np.abs(currents - exact[:, j]).max() / np.abs(exact[:, j]).max()
        assert error < 1e-7, (n_side, j, error)
    assert iterative.stats.n_iterative_solves == 2


def test_direct_path_chunks_wide_blocks(tiny_layout):
    """A block much wider than max_batch is served in max_batch-sized chunks
    on the direct path too (the RHS gather never materialises full width)."""
    solver = _solver(
        tiny_layout, max_batch=3, dispatch=DispatchPolicy(force_path="direct")
    )
    rng = np.random.default_rng(1)
    v = rng.standard_normal((tiny_layout.n_contacts, 11))
    out = solver.solve_many(v)
    assert solver.stats.n_direct_solves == 11
    seq = np.column_stack(
        [_solver(tiny_layout).solve_currents(v[:, j]) for j in range(11)]
    )
    assert np.allclose(out, seq, rtol=0.0, atol=1e-8 * np.abs(seq).max())


def _fd_solver(layout, **kwargs) -> FiniteDifferenceSolver:
    return FiniteDifferenceSolver(layout, _profile(True), nx=16, ny=16, rtol=1e-10, **kwargs)


#: backend -> (solver factory, backend module, the factorisation library call
#: it makes, the error that call raises on a failed factorisation)
_FACTOR_CALLS = {
    "bem": (
        _solver,
        "repro.substrate.bem.solver",
        "cho_factor",
        LinAlgError("leading minor not positive definite"),
    ),
    "fd": (
        _fd_solver,
        "repro.substrate.fd.solver",
        "splu",
        RuntimeError("Factor is exactly singular"),
    ),
}


@pytest.mark.parametrize("backend", sorted(_FACTOR_CALLS))
def test_direct_factorisation_failure_warns_and_falls_back(tiny_layout, backend, monkeypatch):
    """The library factorisation itself fails, so each backend's own error
    mapping runs: one warning, the block answered by the iterative engine,
    and the failure latched for every later block and ``prepare_direct``."""
    make, module, call, error = _FACTOR_CALLS[backend]
    calls = []

    def fail(*args, **kwargs):
        calls.append(call)
        raise error

    monkeypatch.setattr(importlib.import_module(module), call, fail)
    solver = make(
        tiny_layout, dispatch=DispatchPolicy(force_path="direct"), use_factor_cache=False
    )
    v = np.eye(tiny_layout.n_contacts)
    with pytest.warns(RuntimeWarning, match="falling back to the iterative path") as record:
        out = solver.solve_many(v)
    assert [w.category for w in record] == [RuntimeWarning]
    assert calls == [call]
    # the block was still solved — by the iterative engine
    assert solver.stats.n_iterative_solves == tiny_layout.n_contacts
    assert solver.stats.n_direct_solves == 0
    assert solver._direct_failed
    assert solver.last_dispatch.path == "iterative"
    # subsequent blocks skip the doomed factorisation without warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solver.solve_many(v[:, :2])
    assert solver.last_dispatch.reason == "forced direct path unavailable (factorisation failed)"
    assert not solver.prepare_direct()
    assert calls == [call]
    monkeypatch.undo()
    g_ref = make(tiny_layout, dispatch=DispatchPolicy(force_path="direct")).solve_many(v)
    assert np.allclose(out, g_ref, rtol=0.0, atol=1e-8 * np.abs(g_ref).max())


@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "floating"])
def test_direct_factor_is_built_in_place(
    tiny_layout, grounded, monkeypatch, cold_bem_factors
):
    """The Cholesky factor overwrites the gathered A_cc: no second copy."""
    gathered = []
    gather = SurfaceOperator.contact_block_matrix

    def keep(self, *args, **kwargs):
        gathered.append(gather(self, *args, **kwargs))
        return gathered[-1]

    monkeypatch.setattr(SurfaceOperator, "contact_block_matrix", keep)
    solver = _solver(tiny_layout, grounded)
    assert solver.prepare_direct()
    kind, (c, _lower), *_ = solver.direct_factor
    assert kind == ("chol" if grounded else "schur")
    assert len(gathered) == 1
    assert np.shares_memory(c, gathered[0])


# ------------------------------------------- floating bordered direct path
def test_floating_bordered_direct_matches_minres_with_gauge(tiny_layout):
    """The Schur-complement direct solve must reproduce the single-RHS MINRES
    solution *and* the gauge constant ``c`` of the bordered system."""
    rng = np.random.default_rng(3)
    v = rng.standard_normal((tiny_layout.n_contacts, 5))

    seq = _solver(tiny_layout, grounded=False)
    gauges_seq = np.empty(v.shape[1])
    currents_seq = np.empty_like(v)
    for j in range(v.shape[1]):
        currents_seq[:, j] = seq.solve_currents(v[:, j])
        gauges_seq[j] = seq.last_gauge_constants[0]

    direct = _solver(
        tiny_layout, grounded=False, dispatch=DispatchPolicy(force_path="direct")
    )
    currents_direct = direct.solve_many(v)
    assert direct.direct_factor[0] in ("schur", "bordered")
    assert direct.stats.n_direct_solves == v.shape[1]

    scale = np.abs(currents_seq).max()
    assert np.allclose(currents_direct, currents_seq, rtol=0.0, atol=1e-8 * scale)
    gauge_scale = np.abs(gauges_seq).max()
    assert np.allclose(
        direct.last_gauge_constants, gauges_seq, rtol=0.0, atol=1e-7 * gauge_scale
    )

    # the batch-major MINRES block path reports the same gauge constants too
    iterative = _solver(
        tiny_layout, grounded=False, dispatch=DispatchPolicy(force_path="iterative")
    )
    iterative.solve_many(v)
    assert np.allclose(
        iterative.last_gauge_constants, gauges_seq, rtol=0.0, atol=1e-7 * gauge_scale
    )


def test_floating_bordered_fallback_regathers_the_overwritten_block(
    tiny_layout, monkeypatch, cold_bem_factors
):
    """A Cholesky that fails in place leaves A_cc partly overwritten; the
    bordered LU fallback must gather the block again, not factor the debris."""
    import repro.substrate.bem.solver as bem_solver

    def failing_cholesky(a, lower=False, overwrite_a=False, **kwargs):
        if overwrite_a:
            a[: a.shape[0] // 2] = np.nan  # what a partial dpotrf leaves behind
        raise LinAlgError("leading minor not positive definite")

    monkeypatch.setattr(bem_solver, "cho_factor", failing_cholesky)
    rng = np.random.default_rng(6)
    v = rng.standard_normal((tiny_layout.n_contacts, 4))
    direct = _solver(
        tiny_layout, grounded=False, dispatch=DispatchPolicy(force_path="direct")
    )
    out = direct.solve_many(v)
    assert direct.direct_factor[0] == "bordered"
    assert direct.stats.n_direct_solves == v.shape[1]

    reference = _solver(
        tiny_layout, grounded=False, dispatch=DispatchPolicy(force_path="iterative")
    )
    expected = reference.solve_many(v)
    scale = np.abs(expected).max()
    assert np.allclose(out, expected, rtol=0.0, atol=1e-8 * scale)
    gauges = reference.last_gauge_constants
    assert np.allclose(
        direct.last_gauge_constants,
        gauges,
        rtol=0.0,
        atol=1e-7 * np.abs(gauges).max(),
    )


def test_floating_gauge_constants_accumulate_across_chunks(tiny_layout):
    """Regression: an iterative block wider than max_batch must report one
    gauge constant per column, not just the final chunk's."""
    rng = np.random.default_rng(8)
    v = rng.standard_normal((tiny_layout.n_contacts, 11))
    seq = _solver(tiny_layout, grounded=False)
    gauges_seq = np.empty(11)
    for j in range(11):
        seq.solve_currents(v[:, j])
        gauges_seq[j] = seq.last_gauge_constants[0]
    chunked = _solver(
        tiny_layout,
        grounded=False,
        max_batch=3,
        dispatch=DispatchPolicy(force_path="iterative"),
    )
    chunked.solve_many(v)
    assert chunked.last_gauge_constants.shape == (11,)
    scale = np.abs(gauges_seq).max()
    assert np.allclose(
        chunked.last_gauge_constants, gauges_seq, rtol=0.0, atol=1e-7 * scale
    )
    direct = _solver(
        tiny_layout, grounded=False, dispatch=DispatchPolicy(force_path="direct")
    )
    direct.solve_many(v)
    assert np.allclose(
        chunked.last_gauge_constants,
        direct.last_gauge_constants,
        rtol=0.0,
        atol=1e-7 * scale,
    )


def test_floating_gauge_constant_satisfies_bordered_system(tiny_layout):
    """A q + c 1 = v on the contact panels, and 1' q = 0 (charge neutrality)."""
    solver = _solver(
        tiny_layout, grounded=False, dispatch=DispatchPolicy(force_path="direct")
    )
    rng = np.random.default_rng(4)
    v = rng.standard_normal((tiny_layout.n_contacts, 3))
    solver.solve_many(v)
    # reconstruct panel currents from the factor to check the raw system
    owner = solver.grid.panel_to_contact[solver.grid.all_contact_panels]
    v_panel = v[owner]
    kind, *factor = solver.direct_factor
    assert kind == "schur"
    from scipy.linalg import cho_solve

    chol, w, s = factor
    q0 = cho_solve(chol, v_panel)
    c = q0.sum(axis=0) / s
    q = q0 - w[:, None] * c
    residual = solver.operator.apply_contact_panels(q) + c[None, :] - v_panel
    assert np.abs(residual).max() < 1e-8 * np.abs(v_panel).max()
    assert np.abs(q.sum(axis=0)).max() < 1e-8 * np.abs(q).max()
    assert np.allclose(c, solver.last_gauge_constants)


def test_floating_extraction_properties_direct_path(tiny_layout):
    """Dense extraction through the bordered direct path keeps the Section 2.4
    structure: symmetric, zero row sums (floating rank deficiency)."""
    solver = _solver(
        tiny_layout, grounded=False, dispatch=DispatchPolicy(force_path="direct")
    )
    g = extract_dense(solver)
    scale = np.abs(g).max()
    assert np.abs(g - g.T).max() < 1e-8 * scale
    assert np.abs(g.sum(axis=1)).max() < 1e-6 * scale


# ------------------------------------------------------- accounting invariance
@pytest.mark.parametrize("path", ["direct", "iterative"])
@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "floating"])
def test_counting_solver_attribution_invariant_across_paths(
    tiny_layout, grounded, path
):
    solver = _solver(tiny_layout, grounded, dispatch=DispatchPolicy(force_path=path))
    counting = CountingSolver(solver)
    extract_dense(counting)
    assert counting.solve_count == tiny_layout.n_contacts
    counting.solve_many(np.eye(tiny_layout.n_contacts)[:, :5])
    assert counting.solve_count == tiny_layout.n_contacts + 5


# ------------------------------------------------------------ solve statistics
def test_solve_stats_separate_direct_from_iterative():
    stats = SolveStats()
    stats.record(10)
    stats.record(14)
    stats.record_direct(100)
    # the direct solves must not dilute the Krylov iteration mean
    assert stats.mean_iterations == 12.0
    assert stats.n_iterative_solves == 2
    assert stats.n_direct_solves == 100
    assert stats.n_solves == 102
    d = stats.as_dict()
    assert d["mean_iterations"] == 12.0
    assert d["n_direct_solves"] == 100


def test_mixed_workload_mean_iterations_regression(tiny_layout):
    """Regression: a wide direct block followed by an iterative solve must
    report the iterative solve's true iteration count, not a mean dragged
    toward zero by the zero-iteration direct solves."""
    solver = _solver(tiny_layout, dispatch=DispatchPolicy(force_path="direct"))
    solver.solve_many(np.eye(tiny_layout.n_contacts))  # all direct
    assert solver.mean_iterations_per_solve() == 0.0  # no iterative solves yet
    solver.solve_currents(np.ones(tiny_layout.n_contacts))  # one CG solve
    iters = solver.stats.total_iterations
    assert iters > 0
    assert solver.mean_iterations_per_solve() == float(iters)
    assert solver.stats.n_direct_solves == tiny_layout.n_contacts
    assert solver.stats.n_solves == tiny_layout.n_contacts + 1


def test_extract_paper_substrate_routes_cold_blocks_by_width():
    """At the extract-paper substrate (5,120 contact panels on a 128x128
    grid, grounded, under the 512 MiB budget's 8,191-panel ceiling) the
    model's cold break-even sits between 128 and 256 columns (measured at
    ~172): the set-up's cold 256-column block must factor, so every later
    block of the flow reads the cached factor, and a 128-column cold block
    must iterate."""
    policy = DispatchPolicy(max_direct_panels=8191)

    def route(n_rhs: int) -> str:
        return policy.choose(
            n_panels=5120, n_rhs=n_rhs, grid_points=128 * 128, grounded=True
        ).path

    assert route(256) == "direct"
    assert route(128) == "iterative"


def test_solver_max_direct_panels_zero_still_means_iterative_only(tiny_layout):
    solver = EigenfunctionSolver(
        tiny_layout, _profile(True), max_panels=32, max_direct_panels=0, fft_workers=1
    )
    solver.solve_many(np.eye(tiny_layout.n_contacts))
    assert solver.last_dispatch.path == "iterative"
    assert solver.stats.n_direct_solves == 0
