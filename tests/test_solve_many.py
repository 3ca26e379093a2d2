"""Equivalence and accounting tests for the batched multi-RHS solve engine.

``solve_many`` must be a pure batching device: column ``j`` of its result has
to match ``solve_currents`` on column ``j`` for every backend (grounded and
floating backplane), and a block of ``k`` columns must be charged as exactly
``k`` black-box solves.  The physical solvers' ``solve_currents`` is a
one-column run of their iterative block engine, so those comparisons also
hold both against an exact solve of the discrete system.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from repro import (
    CountingSolver,
    DenseMatrixSolver,
    DispatchPolicy,
    EigenfunctionSolver,
    SubstrateProfile,
    extract_columns,
    extract_dense,
    regular_grid,
)
from repro.core.lowrank import LowRankSparsifier
from repro.core.wavelet import WaveletSparsifier
from repro.geometry import PanelGrid
from repro.substrate.bem import SurfaceOperator
from repro.substrate.fd import FiniteDifferenceSolver
from repro.substrate.solver_base import CallableSolver, SubstrateSolver


@pytest.fixture(scope="module")
def tiny_layout():
    return regular_grid(n_side=4, size=64.0, fill=0.5)


def _profile(grounded: bool) -> SubstrateProfile:
    return SubstrateProfile.two_layer_example(size=64.0, grounded_backplane=grounded)


def _column_by_column(solver: SubstrateSolver, v: np.ndarray) -> np.ndarray:
    return np.column_stack([solver.solve_currents(v[:, j]) for j in range(v.shape[1])])


def _exact_bem_currents(solver: EigenfunctionSolver, v: np.ndarray) -> np.ndarray:
    """Dense solve of ``A_cc`` (bordered when floating), summed per contact."""
    grid = solver.grid
    a_cc = solver.operator.dense_contact_block()
    owner = grid.panel_to_contact[grid.all_contact_panels]
    v_panel = v[owner]
    if solver.profile.grounded_backplane:
        q = np.linalg.solve(a_cc, v_panel)
    else:
        ncp = a_cc.shape[0]
        bordered = np.zeros((ncp + 1, ncp + 1))
        bordered[:ncp, :ncp] = a_cc
        bordered[:ncp, -1] = bordered[-1, :ncp] = 1.0
        rhs = np.vstack([v_panel, np.zeros((1, v.shape[1]))])
        q = np.linalg.solve(bordered, rhs)[:ncp]
    out = np.zeros_like(v)
    np.add.at(out, owner, q)
    return out


def _exact_fd_currents(solver: FiniteDifferenceSolver, v: np.ndarray) -> np.ndarray:
    """Sparse direct solve of the FD system, then the contact branch currents."""
    rhs = solver.assembly.rhs_for_contact_voltages(v)
    potentials = spsolve(solver.assembly.matrix.tocsc(), rhs)
    return solver.assembly.contact_currents(v, potentials.reshape(rhs.shape))


def _assert_close(got: np.ndarray, expected: np.ndarray, rel: float = 1e-8) -> None:
    assert np.allclose(got, expected, rtol=0.0, atol=rel * np.abs(expected).max())


# --------------------------------------------------------------- equivalence
@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "floating"])
def test_eigenfunction_solve_many_matches_sequential(tiny_layout, grounded):
    solver = EigenfunctionSolver(tiny_layout, _profile(grounded), max_panels=32, rtol=1e-10)
    rng = np.random.default_rng(7)
    v = rng.standard_normal((tiny_layout.n_contacts, 6))
    batched = solver.solve_many(v)
    sequential = _column_by_column(solver, v)
    _assert_close(batched, sequential)
    exact = _exact_bem_currents(solver, v)
    _assert_close(batched, exact)
    _assert_close(sequential, exact)


@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "floating"])
@pytest.mark.parametrize("preconditioner", ["fast_poisson_area", "jacobi", "ic"])
def test_fd_solve_many_matches_sequential(tiny_layout, grounded, preconditioner):
    solver = FiniteDifferenceSolver(
        tiny_layout,
        _profile(grounded),
        nx=8,
        ny=8,
        planes_per_layer=2,
        preconditioner=preconditioner,
        rtol=1e-10,
    )
    rng = np.random.default_rng(11)
    v = rng.standard_normal((tiny_layout.n_contacts, 5))
    batched = solver.solve_many(v)
    sequential = _column_by_column(solver, v)
    _assert_close(batched, sequential)
    exact = _exact_fd_currents(solver, v)
    _assert_close(batched, exact)
    _assert_close(sequential, exact)


def test_dense_matrix_solve_many_matches_sequential(rng, small_g, small_layout):
    solver = DenseMatrixSolver(small_g, small_layout)
    v = rng.standard_normal((small_layout.n_contacts, 9))
    assert np.allclose(solver.solve_many(v), _column_by_column(solver, v))


def test_callable_solver_uses_loop_fallback(rng, small_g, small_layout):
    calls = []

    def func(v):
        calls.append(v.copy())
        return small_g @ v

    solver = CallableSolver(func, small_layout)
    v = rng.standard_normal((small_layout.n_contacts, 4))
    out = solver.solve_many(v)
    assert len(calls) == 4
    assert np.allclose(out, small_g @ v)


def test_solve_many_fallback_passes_fresh_copies(rng, small_g, small_layout):
    """A solver that mutates its input must not corrupt the caller's block."""

    def mutating(v):
        out = small_g @ v
        v[:] = np.nan  # hostile black box
        return out

    solver = CallableSolver(mutating, small_layout)
    v = rng.standard_normal((small_layout.n_contacts, 3))
    v_copy = v.copy()
    out = solver.solve_many(v)
    assert np.array_equal(v, v_copy)
    assert np.allclose(out, small_g @ v_copy)


def test_solve_many_rejects_wrong_shapes(small_g, small_layout):
    solver = DenseMatrixSolver(small_g, small_layout)
    with pytest.raises(ValueError):
        solver.solve_many(np.zeros(small_layout.n_contacts))
    with pytest.raises(ValueError):
        solver.solve_many(np.zeros((small_layout.n_contacts + 1, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("path", ["iterative", "direct"])
@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "floating"])
@pytest.mark.parametrize("backend", ["bem", "fd"])
def test_non_finite_voltages_are_refused_on_every_path(tiny_layout, backend, grounded, path, bad):
    """No engine answers a NaN or inf voltage: block MINRES used to return an
    all-zero column for it, CG and the FD solver NaN columns, and the FD
    solver's potentials entry point NaN potentials."""
    policy = DispatchPolicy(force_path=path)
    if backend == "bem":
        solver = EigenfunctionSolver(
            tiny_layout, _profile(grounded), max_panels=32, dispatch=policy
        )
    else:
        solver = FiniteDifferenceSolver(
            tiny_layout, _profile(grounded), nx=8, ny=8, planes_per_layer=2, dispatch=policy
        )
    v = np.random.default_rng(11).standard_normal((tiny_layout.n_contacts, 3))
    v[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        solver.solve_many(v)
    with pytest.raises(ValueError, match="finite"):
        solver.solve_currents(v[:, 2])
    if backend == "fd":
        with pytest.raises(ValueError, match="finite"):
            solver.solve_potentials_many(v)
    assert solver.stats.n_solves == 0


def test_eigenfunction_solve_many_chunks_and_zero_columns(tiny_layout):
    solver = EigenfunctionSolver(
        tiny_layout, _profile(True), max_panels=32, rtol=1e-10, max_batch=3
    )
    rng = np.random.default_rng(3)
    v = rng.standard_normal((tiny_layout.n_contacts, 8))
    v[:, 2] = 0.0  # an exactly-zero column must come back exactly zero
    batched = solver.solve_many(v)
    assert np.array_equal(batched[:, 2], np.zeros(tiny_layout.n_contacts))
    sequential = _column_by_column(solver, v)
    scale = np.abs(sequential).max()
    assert np.allclose(batched, sequential, rtol=0.0, atol=1e-8 * scale)


def test_solve_many_is_linear(tiny_layout):
    """solve_many(V) C == solve_many(V C) — batching is a linear operator."""
    solver = EigenfunctionSolver(tiny_layout, _profile(True), max_panels=32, rtol=1e-12)
    rng = np.random.default_rng(5)
    v = rng.standard_normal((tiny_layout.n_contacts, 3))
    c = rng.standard_normal((3, 3))
    lhs = solver.solve_many(v) @ c
    rhs = solver.solve_many(v @ c)
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-8 * np.abs(lhs).max())


# ----------------------------------------------------------------- accounting
def test_counting_solver_charges_one_solve_per_column(small_g, small_layout, rng):
    counting = CountingSolver(DenseMatrixSolver(small_g, small_layout))
    counting.solve_many(rng.standard_normal((small_layout.n_contacts, 7)))
    assert counting.solve_count == 7
    counting.solve_currents(rng.standard_normal(small_layout.n_contacts))
    assert counting.solve_count == 8
    assert counting.solve_reduction_factor() == small_layout.n_contacts / 8


def test_counting_solver_forwards_block_in_one_submission(small_g, small_layout, rng):
    submissions = []

    class Spy(DenseMatrixSolver):
        def solve_many(self, voltages):
            submissions.append(voltages.shape)
            return super().solve_many(voltages)

    counting = CountingSolver(Spy(small_g, small_layout))
    counting.solve_many(rng.standard_normal((small_layout.n_contacts, 5)))
    assert submissions == [(small_layout.n_contacts, 5)]


# --------------------------------------------------- extraction through blocks
def test_extract_dense_matches_sequential_reference(tiny_layout):
    solver = EigenfunctionSolver(tiny_layout, _profile(True), max_panels=32, rtol=1e-10)
    n = tiny_layout.n_contacts
    reference = _column_by_column(solver, np.eye(n))
    g = extract_dense(solver)
    _assert_close(g, reference)
    exact = _exact_bem_currents(solver, np.eye(n))
    _assert_close(g, exact)
    _assert_close(reference, exact)


def test_extract_dense_counts_n_solves(small_g, small_layout):
    counting = CountingSolver(DenseMatrixSolver(small_g, small_layout))
    extract_dense(counting)
    assert counting.solve_count == small_layout.n_contacts


def test_extract_columns_independent_of_call_order(small_g, small_layout):
    """RHS construction is fresh per block: any column order gives the same G."""
    solver = DenseMatrixSolver(small_g, small_layout)
    n = small_layout.n_contacts
    forward = extract_columns(solver, np.arange(n))
    shuffled = np.random.default_rng(0).permutation(n)
    scrambled = extract_columns(solver, shuffled, block_size=5)
    assert np.array_equal(scrambled[:, np.argsort(shuffled)], forward)
    # interleaving extractions of different solvers must not interfere either
    a = extract_columns(solver, np.array([3, 1]))
    b = extract_columns(solver, np.array([1, 3]))
    assert np.array_equal(a[:, ::-1], b)


def test_extract_dense_block_size_one_matches_full_block(tiny_layout):
    solver = EigenfunctionSolver(tiny_layout, _profile(True), max_panels=32, rtol=1e-12)
    g_full = extract_dense(solver)
    g_one = extract_dense(solver, block_size=1)
    assert np.allclose(g_full, g_one, rtol=0.0, atol=1e-8 * np.abs(g_full).max())


def test_extract_columns_symmetrize_requires_all_columns(small_g, small_layout):
    solver = DenseMatrixSolver(small_g, small_layout)
    with pytest.raises(ValueError):
        extract_columns(solver, np.array([0, 1]), symmetrize=True)


# ------------------------------------------------ solve-count regression (3.5)
class _SequentialOnly(SubstrateSolver):
    """Black box without a batched path — forces the generic column loop."""

    def __init__(self, matrix, layout):
        self.matrix = matrix
        self.layout = layout

    def solve_currents(self, voltages):
        return self.matrix @ np.asarray(voltages, dtype=float)


def test_wavelet_solve_counts_unchanged_by_batching(small_g, small_layout, small_hierarchy):
    """Batching groups RHS; the attributed solve count (the paper's headline
    metric) must be identical to the sequential black-box path."""
    batched = CountingSolver(DenseMatrixSolver(small_g, small_layout))
    rep_batched = WaveletSparsifier(small_hierarchy, order=2).extract(batched)

    sequential = CountingSolver(_SequentialOnly(small_g, small_layout))
    rep_sequential = WaveletSparsifier(small_hierarchy, order=2).extract(sequential)

    assert batched.solve_count == sequential.solve_count
    assert rep_batched.n_solves == rep_sequential.n_solves == batched.solve_count
    # and the extracted representations agree (exact black box -> exact match)
    diff = (rep_batched.gw - rep_sequential.gw)
    assert np.abs(diff.toarray()).max() < 1e-10


def test_lowrank_solve_counts_unchanged_by_batching(small_g, small_layout, small_hierarchy):
    batched = CountingSolver(DenseMatrixSolver(small_g, small_layout))
    lr_batched = LowRankSparsifier(small_hierarchy, max_rank=6, seed=0).build(batched)

    sequential = CountingSolver(_SequentialOnly(small_g, small_layout))
    lr_sequential = LowRankSparsifier(small_hierarchy, max_rank=6, seed=0).build(sequential)

    assert batched.solve_count == sequential.solve_count
    assert lr_batched.n_solves == lr_sequential.n_solves == batched.solve_count
    rep_b = lr_batched.to_sparsified()
    rep_s = lr_sequential.to_sparsified()
    assert np.abs((rep_b.gw - rep_s.gw).toarray()).max() < 1e-10


def test_batched_operator_fft_matches_cosine_matrices(tiny_layout):
    """The stacked-DCT apply equals the cosine-matrix reference on 3-D blocks."""
    s_fft = EigenfunctionSolver(tiny_layout, _profile(True), max_panels=32, use_fft=True)
    s_mat = EigenfunctionSolver(tiny_layout, _profile(True), max_panels=32, use_fft=False)
    rng = np.random.default_rng(2)
    q = rng.standard_normal((s_fft.grid.nx, s_fft.grid.ny, 4))
    a = s_fft.operator.apply_grid(q)
    b = s_mat.operator.apply_grid(q)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(a).max())
    # batch-major contact-panel block apply agrees with the generic path
    ncp = s_fft.grid.n_contact_panels
    block = rng.standard_normal((5, ncp))
    fast = s_fft.operator.apply_contact_panels_block(block)
    ref = s_fft.operator.apply_contact_panels(block.T).T
    assert np.allclose(fast, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_matrix_path_solver_solve_many_matches_sequential(tiny_layout):
    solver = EigenfunctionSolver(
        tiny_layout, _profile(True), max_panels=32, rtol=1e-10, use_fft=False
    )
    rng = np.random.default_rng(9)
    v = rng.standard_normal((tiny_layout.n_contacts, 5))
    batched = solver.solve_many(v)
    sequential = _column_by_column(solver, v)
    _assert_close(batched, sequential)
    # the cosine-matrix operator's own A_cc: no DCT anywhere in the reference
    exact = _exact_bem_currents(solver, v)
    _assert_close(batched, exact)
    _assert_close(sequential, exact)


def _operator(layout, grounded: bool, shape: tuple | None) -> SurfaceOperator:
    """The solver's square grid, or a ``PanelGrid`` of the given shape."""
    if shape is None:
        return EigenfunctionSolver(layout, _profile(grounded), max_panels=32).operator
    return SurfaceOperator(PanelGrid(layout, *shape), _profile(grounded))


@pytest.mark.parametrize("shape", [None, (12, 20)], ids=["square", "12x20"])
@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "floating"])
def test_contact_block_matrix_matches_loop_reference(tiny_layout, grounded, shape):
    op = _operator(tiny_layout, grounded, shape)
    a_ref = op.dense_contact_block()
    atol = 1e-13 * np.abs(a_ref).max()  # float64 round-off of the kernel gather
    a_fast = op.contact_block_matrix(max_batch=7)
    assert np.allclose(a_fast, a_ref, rtol=0.0, atol=atol)
    assert np.array_equal(a_fast, a_fast.T)
    ncp = op.grid.n_contact_panels
    window = op.contact_block_rows(3, ncp - 2, max_batch=7)
    assert np.allclose(window, a_ref[3 : ncp - 2], rtol=0.0, atol=atol)


@pytest.mark.parametrize(
    "window",
    [lambda n: (-2, n), lambda n: (0, n + 5), lambda n: (10, 4)],
    ids=["negative-start", "stop-past-end", "stop-before-start"],
)
def test_contact_block_rows_rejects_bad_window(tiny_layout, window):
    op = _operator(tiny_layout, True, None)
    ncp = op.grid.n_contact_panels
    with pytest.raises(ValueError, match=f"row_stop <= {ncp}"):
        op.contact_block_rows(*window(ncp))


@pytest.mark.parametrize("max_batch", [0, -1])
def test_contact_block_rows_rejects_empty_batch(tiny_layout, max_batch):
    op = _operator(tiny_layout, True, None)
    with pytest.raises(ValueError, match="max_batch"):
        op.contact_block_rows(0, op.grid.n_contact_panels, max_batch=max_batch)
