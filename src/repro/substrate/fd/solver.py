"""Finite-difference black-box substrate solver (Section 2.2).

Solves the grid-of-resistors system with preconditioned conjugate gradients
for each set of contact voltages and returns the contact currents, satisfying
the same black-box contract as the eigenfunction solver.  PCG is written
once, as a multi-RHS iteration behind
:meth:`FiniteDifferenceSolver.solve_potentials_many`; a one-vector
:meth:`~FiniteDifferenceSolver.solve_potentials` is a one-column run of it,
always iterative, so it counts its PCG iterations (Tables 2.1 and 2.2).

Batched solves (:meth:`FiniteDifferenceSolver.solve_many`) are routed per
block by a :class:`~repro.substrate.dispatch.DispatchPolicy` between that
multi-RHS PCG iteration and a factor-once sparse LU of the system matrix,
which is symmetric positive definite whenever at least one Dirichlet
coupling exists (contacts always stamp one).  The routing is
iteration-aware: the near-exact fast-Poisson preconditioner converges in a
couple of iterations on laterally uniform profiles and then beats a
triangular sweep over the LU fill per column, while weakly preconditioned
configurations (Jacobi, incomplete Cholesky) cross over to the direct path
for wide blocks.  The sparse LU follows the eigenfunction solver's ownership
rule: the process-wide :mod:`~repro.substrate.factor_cache` owns it, keyed
on the layout fingerprint, the physical profile and the grid resolution, so
a second solver over the same substrate pays ~zero factor cost.  It is held
in RAM only; a restarted process rebuilds it.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.sparse.linalg import SuperLU, splu

from ...geometry.contact import ContactLayout
from ..dispatch import DispatchDecision, DispatchPolicy
from ..profile import SubstrateProfile
from ..solver_base import (
    SolveStats,
    SubstrateSolver,
    _CacheOwnedFactor,
    check_finite_voltages,
)
from .assembly import FDAssembly
from .grid import Grid3D
from .preconditioners import make_preconditioner

__all__ = ["FiniteDifferenceSolver"]

#: factor-cache kind string of the FD sparse factorisations
FD_FACTOR_KIND = "fd_direct_factor"

#: prior PCG iteration expectations per preconditioner, used by the dispatch
#: cost model until the solver has observed its own convergence behaviour
_ITERATION_PRIORS = {
    "fast_poisson_dirichlet": 4.0,
    "fast_poisson_neumann": 4.0,
    "fast_poisson_area": 2.0,
    "ic": 50.0,
    "jacobi": 130.0,
    "none": 300.0,
}


class FiniteDifferenceSolver(_CacheOwnedFactor, SubstrateSolver):
    """PCG-based finite-difference substrate solver.

    Parameters
    ----------
    layout:
        Contact layout.
    profile:
        Layered substrate profile.
    nx, ny:
        Lateral grid resolution.
    planes_per_layer:
        Vertical planes per substrate layer (int or per-layer sequence).
    preconditioner:
        Name from :data:`~repro.substrate.fd.preconditioners.PRECONDITIONER_NAMES`;
        defaults to the paper's best performer, the area-weighted fast-Poisson
        preconditioner.
    rtol:
        Relative residual tolerance of the PCG iteration.
    max_batch:
        Largest number of right-hand-side columns iterated at once by
        :meth:`solve_many` (bounds the ``(n_nodes, k)`` work arrays).
    fft_workers:
        Worker-thread count for the fast-Poisson preconditioner's DCT
        transforms, resolved through
        :func:`~repro.substrate.dispatch.resolve_fft_workers` (default: all
        CPUs the process may run on, when there is more than one).  Ignored
        by the non-DCT preconditioners.
    dispatch:
        Adaptive :class:`~repro.substrate.dispatch.DispatchPolicy` routing
        each ``solve_many`` block between the sparse LU and the multi-RHS
        PCG iteration (``choose_sparse``).  ``None`` builds a default policy.
    use_factor_cache:
        Keep the sparse LU in the process-wide
        :mod:`~repro.substrate.factor_cache`, which then owns it: a second
        solver over the same ``(layout, profile, grid)`` pays ~zero factor
        cost, and the cache budget bounds the factor's memory.  Disable to
        force a private factorisation, held by this solver (benchmarking
        cold paths).
    """

    def __init__(
        self,
        layout: ContactLayout,
        profile: SubstrateProfile,
        nx: int = 32,
        ny: int = 32,
        planes_per_layer: int | tuple[int, ...] = 3,
        preconditioner: str = "fast_poisson_area",
        rtol: float = 1e-8,
        max_batch: int = 128,
        fft_workers: int | None = None,
        dispatch: DispatchPolicy | None = None,
        use_factor_cache: bool = True,
    ) -> None:
        self.layout = layout
        self.profile = profile
        self.grid = Grid3D(layout, profile, nx, ny, planes_per_layer)
        self.assembly = FDAssembly(self.grid)
        self.preconditioner_name = preconditioner
        self._m_inv = make_preconditioner(
            preconditioner, self.assembly, fft_workers=fft_workers
        )
        self.rtol = rtol
        self.max_batch = int(max_batch)
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.stats = SolveStats()
        self.dispatch = dispatch if dispatch is not None else DispatchPolicy()
        self.use_factor_cache = bool(use_factor_cache)
        #: routing decision of the most recent solve_many block (diagnostics)
        self.last_dispatch: DispatchDecision | None = None
        self._direct_failed = False
        grid = self.grid
        self._factor_cache_key = (
            FD_FACTOR_KIND,
            grid.layout.fingerprint,
            grid.profile.cache_key,
            grid.nx,
            grid.ny,
            tuple(grid.hz.tolist()),
        )

    # ----------------------------------------------------------------- solves
    def solve_potentials(self, voltages: np.ndarray) -> np.ndarray:
        """Nodal potentials for one voltage vector: a one-column PCG run."""
        voltages = np.asarray(voltages, dtype=float)
        if voltages.shape != (self.layout.n_contacts,):
            raise ValueError("expected one voltage per contact")
        check_finite_voltages(voltages)
        b = self.assembly.rhs_for_contact_voltages(voltages)
        return self._pcg(b[:, None])[:, 0]

    def solve_currents(self, voltages: np.ndarray) -> np.ndarray:
        potentials = self.solve_potentials(voltages)
        return self.assembly.contact_currents(np.asarray(voltages, dtype=float), potentials)

    # ------------------------------------------------------------- direct path
    def _expected_iterations(self) -> float | None:
        """Observed PCG convergence, or a per-preconditioner prior."""
        if self.stats.n_iterative_solves > 0:
            return self.stats.mean_iterations
        return _ITERATION_PRIORS.get(self.preconditioner_name)

    def prepare_direct(self) -> bool:
        """Build (or load from the factor cache) the sparse LU factor now.

        Returns True when the factor exists afterwards, in the factor cache
        or held by this solver; False when the direct path is unavailable
        (node ceiling, or a failed factorisation, which is also remembered
        so dispatch never retries it).  The service calls it once when it
        builds an engine, so requests pay solve cost only.
        """
        if self._direct_failed:
            return False
        if not 0 < self.assembly.matrix.shape[0] <= self.dispatch.max_direct_nodes:
            return False
        try:
            self._ensure_direct_factor()
        except RuntimeError:
            self._direct_failed = True
            return False
        return True

    def _build_direct_factor(self) -> SuperLU:
        """Sparse LU of the system matrix (SciPy's SuperLU, default options).

        The LU lives in the process-wide factor cache only: the artifact
        store does not persist it, because a SuperLU cannot be rebuilt from
        its arrays and solving through them ran ~1.5-2.5x slower than the
        native factor.  So after a restart it is rebuilt once (~0.2 s on a
        7,168-node grid), counted like any cache miss.

        Raises ``RuntimeError`` if the factorisation fails (exactly singular
        system: only possible for degenerate assemblies with no Dirichlet
        coupling at all).
        """
        try:
            return splu(self.assembly.matrix.tocsc())
        except (RuntimeError, ValueError, MemoryError) as exc:
            raise RuntimeError(f"sparse LU factorisation failed: {exc}") from exc

    def _solve_many_direct(self, v: np.ndarray) -> np.ndarray | None:
        """Factor-once / solve-all path; returns None on factorisation failure.

        RHS and potential blocks are processed in ``max_batch``-column chunks
        so a wide block never materialises the full ``(n_nodes, k)`` arrays
        at once — the same memory bound the iterative path observes.
        """
        try:
            lu = self._ensure_direct_factor()
        except RuntimeError:
            self._direct_failed = True
            return None
        out = np.empty_like(v)
        for start in range(0, v.shape[1], self.max_batch):
            chunk = slice(start, min(start + self.max_batch, v.shape[1]))
            b = self.assembly.rhs_for_contact_voltages(v[:, chunk])
            out[:, chunk] = self.assembly.contact_currents(v[:, chunk], lu.solve(b))
        self.stats.record_direct(v.shape[1])
        return out

    # ---------------------------------------------------------- batched solves
    def solve_many(self, voltages: np.ndarray) -> np.ndarray:
        """Batched black-box solve with adaptive direct/iterative dispatch.

        The :class:`~repro.substrate.dispatch.DispatchPolicy` routes the
        whole block once (``choose_sparse``), so a one-time sparse
        factorisation is amortised over every column; the chosen engine then
        chunks internally at ``max_batch``.  The iterative engine runs one
        sparse matrix-block product and one block preconditioner apply per
        iteration for every column: the one PCG loop, which
        :meth:`solve_currents` runs on one column.  A block holding NaN or
        inf raises ``ValueError`` before either engine runs.
        """
        v = np.asarray(voltages, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.layout.n_contacts:
            raise ValueError("expected an (n_contacts, k) voltage block")
        check_finite_voltages(v)
        if v.shape[1] == 0:
            return np.empty_like(v)
        decision = self.dispatch.choose_sparse(
            n_nodes=self.assembly.matrix.shape[0],
            n_rhs=v.shape[1],
            factor_cached=self._factor_available(),
            factor_failed=self._direct_failed,
            expected_iterations=self._expected_iterations(),
        )
        self.last_dispatch = decision
        if decision.path == "direct":
            solved = self._solve_many_direct(v)
            if solved is not None:
                return solved
            warnings.warn(
                "sparse LU factorisation of the FD system failed; falling back "
                "to the iterative path",
                RuntimeWarning,
                stacklevel=2,
            )
            self.last_dispatch = DispatchDecision(
                "iterative", "direct factorisation failed"
            )
        out = np.empty_like(v)
        for start in range(0, v.shape[1], self.max_batch):
            chunk = slice(start, min(start + self.max_batch, v.shape[1]))
            potentials = self.solve_potentials_many(v[:, chunk])
            out[:, chunk] = self.assembly.contact_currents(v[:, chunk], potentials)
        return out

    def solve_potentials_many(self, voltages: np.ndarray) -> np.ndarray:
        """Nodal potentials for an ``(n_contacts, k)`` block of voltages.

        A block holding NaN or inf raises ``ValueError``, as in
        :meth:`solve_potentials` and :meth:`solve_many`.
        """
        v = np.asarray(voltages, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.layout.n_contacts:
            raise ValueError("expected an (n_contacts, k) voltage block")
        check_finite_voltages(v)
        return self._pcg(self.assembly.rhs_for_contact_voltages(v))

    def _pcg(self, b: np.ndarray) -> np.ndarray:
        """The one PCG loop of this solver, over the columns of ``b``.

        Starts from ``x0 = 0``.  Per-column step lengths keep each column on
        its own trajectory, and the loop stops as soon as every column meets
        ``rtol``, before preconditioning a finished residual (a fast-Poisson
        apply per block).
        """
        if b.shape[1] == 0:
            return b
        a = self.assembly.matrix
        precondition = (
            self._m_inv.matmat if self._m_inv is not None else (lambda r: r)
        )
        n_rhs = b.shape[1]
        x = np.zeros_like(b)
        r = b.copy()
        tol = self.rtol * np.linalg.norm(b, axis=0)
        iters = np.zeros(n_rhs, dtype=int)
        active = np.linalg.norm(r, axis=0) > tol
        z = precondition(r)
        p = z.copy()
        rz = np.einsum("ij,ij->j", r, z)
        for _ in range(5000):
            if not active.any():
                break
            ap = a @ p
            pap = np.einsum("ij,ij->j", p, ap)
            safe_pap = np.where(pap > 0, pap, 1.0)
            alpha = np.where(active & (pap > 0), rz / safe_pap, 0.0)
            x += alpha * p
            r -= alpha * ap
            iters[active] += 1
            # column norms through einsum: np.linalg.norm's (n_nodes, k)
            # temporary costs more than the reduction on every iteration
            active &= np.sqrt(np.einsum("ij,ij->j", r, r)) > tol
            if not active.any():
                break
            z = precondition(r)
            rz_new = np.einsum("ij,ij->j", r, z)
            beta = np.where(rz > 0, rz_new / np.where(rz > 0, rz, 1.0), 0.0)
            p *= beta
            p += z
            rz = rz_new
        if active.any():
            raise RuntimeError(
                f"batched PCG did not converge for {int(active.sum())} column(s)"
            )
        for it in iters:
            self.stats.record(int(it))
        return x

    # ------------------------------------------------------------ convenience
    def conductance_matrix(self) -> np.ndarray:
        """Dense ``G`` by the naive method (small layouts only)."""
        from ..extraction import extract_dense

        return extract_dense(self)

    def mean_iterations_per_solve(self) -> float:
        """Average PCG iterations per iterative solve (Tables 2.1 and 2.2).

        See :class:`~repro.substrate.solver_base.SolveStats`: solves served
        by the sparse LU run zero PCG iterations and are
        reported separately (``stats.n_direct_solves``), never diluting this
        mean.
        """
        return self.stats.mean_iterations
