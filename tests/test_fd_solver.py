"""Tests for the finite-difference grid, assembly, preconditioners and solver."""

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from repro import FiniteDifferenceSolver, SubstrateProfile, extract_dense, regular_grid
from repro.substrate.extraction import check_conductance_properties
from repro.substrate.fd import (
    FDAssembly,
    FastPoissonPreconditioner,
    Grid3D,
    PRECONDITIONER_NAMES,
    make_preconditioner,
)


@pytest.fixture(scope="module")
def tiny_layout():
    return regular_grid(n_side=3, size=48.0, fill=0.5)


@pytest.fixture(scope="module")
def tiny_profile():
    return SubstrateProfile.two_layer_example(size=48.0, grounded_backplane=True)


@pytest.fixture(scope="module")
def tiny_grid(tiny_layout, tiny_profile):
    return Grid3D(tiny_layout, tiny_profile, nx=12, ny=12, planes_per_layer=(2, 3))


@pytest.fixture(scope="module")
def tiny_assembly(tiny_grid):
    return FDAssembly(tiny_grid)


class TestGrid3D:
    def test_plane_counts_and_conductivities(self, tiny_grid):
        assert tiny_grid.nz == 5
        assert np.allclose(tiny_grid.sigma[:2], 1.0)
        assert np.allclose(tiny_grid.sigma[2:], 100.0)

    def test_vertical_spacing_covers_depth(self, tiny_grid, tiny_profile):
        assert np.isclose(tiny_grid.hz.sum(), tiny_profile.depth)

    def test_every_contact_has_top_nodes(self, tiny_grid, tiny_layout):
        owner = tiny_grid.top_contact_owner
        assert owner.shape == (tiny_grid.nx, tiny_grid.ny)
        assert np.all(np.bincount(owner[owner >= 0], minlength=tiny_layout.n_contacts) > 0)

    def test_contact_area_fraction_close_to_layout_coverage(self, tiny_grid, tiny_layout):
        assert abs(tiny_grid.contact_area_fraction() - tiny_layout.coverage) < 0.15

    def test_layer_boundary_conductance_series_formula(self, tiny_grid):
        gz = tiny_grid.vertical_conductances()
        area = tiny_grid.hx * tiny_grid.hy
        # boundary between plane 1 (sigma=1) and plane 2 (sigma=100)
        expected = 1.0 / (
            0.5 * tiny_grid.hz[1] / (1.0 * area) + 0.5 * tiny_grid.hz[2] / (100.0 * area)
        )
        assert np.isclose(gz[1], expected)

    def test_node_indexing_roundtrip(self, tiny_grid):
        idx = tiny_grid.node_index(3, 4, 2)
        assert idx == (2 * tiny_grid.nx + 3) * tiny_grid.ny + 4

    def test_too_coarse_rejected(self, tiny_layout, tiny_profile):
        with pytest.raises(ValueError):
            Grid3D(tiny_layout, tiny_profile, nx=1, ny=8)


class TestAssembly:
    def test_matrix_symmetric(self, tiny_assembly):
        a = tiny_assembly.matrix
        assert abs(a - a.T).max() < 1e-10

    def test_matrix_positive_definite(self, tiny_assembly):
        smallest = eigsh(tiny_assembly.matrix, k=1, which="SA", return_eigenvectors=False)
        assert smallest[0] > 0

    def test_interior_row_sums_vanish(self, tiny_assembly, tiny_grid):
        """Rows not touching a Dirichlet boundary are exactly balanced (KCL)."""
        a = tiny_assembly.matrix
        row_sums = np.asarray(a.sum(axis=1)).ravel()
        # pick an interior node away from top and bottom planes
        node = tiny_grid.node_index(5, 5, 2)
        assert abs(row_sums[node]) < 1e-9 * a.diagonal().max()

    def test_rhs_only_under_contacts(self, tiny_assembly, tiny_grid):
        v = np.arange(1.0, 10.0)
        b = tiny_assembly.rhs_for_contact_voltages(v)
        nz = np.flatnonzero(b)
        # top node (i, j, 0) is flat node i * ny + j, the owner array's order
        allowed = np.flatnonzero(tiny_grid.top_contact_owner.ravel() >= 0)
        assert set(nz) <= set(allowed)

    def test_currents_balance_with_grounded_backplane(self, tiny_assembly):
        """All contacts at 1 V push net positive current into the substrate."""
        v = np.ones(9)
        b = tiny_assembly.rhs_for_contact_voltages(v)
        from scipy.sparse.linalg import spsolve

        phi = spsolve(tiny_assembly.matrix.tocsc(), b)
        currents = tiny_assembly.contact_currents(v, phi)
        assert np.all(currents > 0)


def _dense_inverse(pre: FastPoissonPreconditioner) -> np.ndarray:
    """The explicit dense ``M^{-1}``, one preconditioner solve per column."""
    return np.column_stack([pre.solve(e) for e in np.eye(pre.grid.n_nodes)])


class TestFastPoissonPreconditioner:
    def test_symmetric_positive_definite(self, tiny_grid):
        pre = FastPoissonPreconditioner(tiny_grid, "area_weighted")
        m_inv = _dense_inverse(pre)
        assert np.allclose(m_inv, m_inv.T, rtol=1e-8, atol=1e-10)
        assert np.linalg.eigvalsh(0.5 * (m_inv + m_inv.T)).min() > 0

    def test_exact_for_uniform_top_bc(self, tiny_layout, tiny_profile):
        """With full contact coverage the Dirichlet-mode fast solver is an exact inverse."""
        full = regular_grid(n_side=1, size=48.0, fill=0.999)
        grid = Grid3D(full, tiny_profile, nx=8, ny=8, planes_per_layer=(1, 2))
        assembly = FDAssembly(grid)
        pre = FastPoissonPreconditioner(grid, "dirichlet")
        rng = np.random.default_rng(0)
        r = rng.standard_normal(grid.n_nodes)
        x = pre.solve(assembly.matrix @ r)
        assert np.allclose(x, r, rtol=1e-8, atol=1e-8)

    def test_fraction_resolution(self, tiny_grid):
        assert FastPoissonPreconditioner(tiny_grid, "dirichlet").top_fraction == 1.0
        assert FastPoissonPreconditioner(tiny_grid, "neumann").top_fraction == 0.0
        area = FastPoissonPreconditioner(tiny_grid, "area_weighted").top_fraction
        assert 0.0 < area < 1.0
        assert FastPoissonPreconditioner(tiny_grid, 0.3).top_fraction == 0.3

    def test_invalid_mode(self, tiny_grid):
        with pytest.raises(ValueError):
            FastPoissonPreconditioner(tiny_grid, "bogus")
        with pytest.raises(ValueError):
            FastPoissonPreconditioner(tiny_grid, 1.5)


class TestPreconditionerFactory:
    @pytest.mark.parametrize("name", PRECONDITIONER_NAMES)
    def test_all_named_preconditioners_build_and_apply(self, name, tiny_assembly):
        m = make_preconditioner(name, tiny_assembly)
        if name == "none":
            assert m is None
            return
        r = np.ones(tiny_assembly.grid.n_nodes)
        out = m @ r
        assert out.shape == r.shape
        assert np.all(np.isfinite(out))

    def test_unknown_name_rejected(self, tiny_assembly):
        with pytest.raises(ValueError):
            make_preconditioner("does-not-exist", tiny_assembly)


class TestFiniteDifferenceSolver:
    @pytest.fixture(scope="class")
    def solver(self, tiny_layout, tiny_profile):
        return FiniteDifferenceSolver(
            tiny_layout, tiny_profile, nx=12, ny=12, planes_per_layer=(2, 3)
        )

    def test_conductance_properties(self, solver):
        g = extract_dense(solver, symmetrize=True)
        checks = check_conductance_properties(g, grounded_backplane=True, symmetry_tol=1e-5)
        assert all(checks.values()), checks

    def test_matches_bem_solver_shape(self, solver, tiny_layout):
        """FD and BEM agree on the coupling *pattern* (ratios), not absolute values."""
        from repro import EigenfunctionSolver

        profile = SubstrateProfile.two_layer_example(size=48.0, grounded_backplane=True)
        bem = EigenfunctionSolver(tiny_layout, profile, max_panels=32)
        g_fd = extract_dense(solver, symmetrize=True)
        g_bem = extract_dense(bem, symmetrize=True)
        # normalised nearest-neighbour vs far coupling ratios agree within a factor 3
        r_fd = abs(g_fd[0, 1] / g_fd[0, 8])
        r_bem = abs(g_bem[0, 1] / g_bem[0, 8])
        assert 1.0 / 3.0 < r_fd / r_bem < 3.0

    def test_fast_poisson_preconditioners_beat_jacobi(self, tiny_layout, tiny_profile, rng):
        """Table 2.1 direction: fast-solver preconditioners need far fewer iterations."""
        iters = {}
        for name in ("fast_poisson_dirichlet", "fast_poisson_neumann", "fast_poisson_area", "jacobi"):
            s = FiniteDifferenceSolver(
                tiny_layout, tiny_profile, nx=12, ny=12, planes_per_layer=(2, 3),
                preconditioner=name,
            )
            for _ in range(3):
                s.solve_currents(rng.standard_normal(9))
            iters[name] = s.mean_iterations_per_solve()
        for name in ("fast_poisson_dirichlet", "fast_poisson_neumann", "fast_poisson_area"):
            assert iters[name] < 0.5 * iters["jacobi"]

    def test_ic_preconditioner_converges(self, tiny_layout, tiny_profile, rng):
        s = FiniteDifferenceSolver(
            tiny_layout, tiny_profile, nx=10, ny=10, planes_per_layer=(1, 2),
            preconditioner="ic",
        )
        currents = s.solve_currents(rng.standard_normal(9))
        assert np.all(np.isfinite(currents))
        assert s.mean_iterations_per_solve() < 200

    def test_wrong_voltage_length(self, solver):
        with pytest.raises(ValueError):
            solver.solve_currents(np.ones(5))

    def test_solve_potentials_shape(self, solver):
        phi = solver.solve_potentials(np.ones(9))
        assert phi.shape == (solver.grid.n_nodes,)
