"""Finite-difference black-box substrate solver (Section 2.2).

Solves the grid-of-resistors system with preconditioned conjugate gradients
for each set of contact voltages and returns the contact currents, satisfying
the same black-box contract as the eigenfunction solver.

Batched solves (:meth:`FiniteDifferenceSolver.solve_many`) are routed per
block by a :class:`~repro.substrate.dispatch.DispatchPolicy` between the
multi-RHS PCG iteration and a factor-once sparse-LU direct engine
(:class:`~repro.substrate.fd.direct.FDDirectEngine`), mirroring the
eigenfunction solver's adaptive dispatch.  The routing is iteration-aware:
the near-exact fast-Poisson preconditioner converges in a couple of
iterations on laterally uniform profiles and then beats a triangular sweep
over the LU fill per column, while weakly preconditioned configurations
(Jacobi, incomplete Cholesky) cross over to the direct engine for wide
blocks.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.sparse.linalg import cg

from ...geometry.contact import ContactLayout
from ..dispatch import DispatchDecision, DispatchPolicy
from ..profile import SubstrateProfile
from ..solver_base import SolveStats, SubstrateSolver, check_finite_voltages
from .assembly import FDAssembly
from .direct import FDDirectEngine
from .grid import Grid3D
from .preconditioners import make_preconditioner

__all__ = ["FiniteDifferenceSolver"]

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


class FiniteDifferenceSolver(SubstrateSolver):
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
        CPUs when the host has more than one).  Ignored by the non-DCT
        preconditioners.
    dispatch:
        Adaptive :class:`~repro.substrate.dispatch.DispatchPolicy` routing
        each ``solve_many`` block between the sparse-LU direct engine and the
        multi-RHS PCG iteration (``choose_sparse``).  ``None`` builds a
        default policy.
    use_factor_cache:
        Consult (and populate) the process-wide
        :mod:`~repro.substrate.factor_cache` for the sparse LU.  Disable to
        force a private factorisation (benchmarking cold paths).
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
        self._direct_engine: FDDirectEngine | None = None
        self._direct_failed = False

    # ----------------------------------------------------------------- solves
    def solve_potentials(self, voltages: np.ndarray) -> np.ndarray:
        """Solve for all nodal potentials given contact voltages."""
        voltages = np.asarray(voltages, dtype=float)
        if voltages.shape != (self.layout.n_contacts,):
            raise ValueError("expected one voltage per contact")
        check_finite_voltages(voltages)
        b = self.assembly.rhs_for_contact_voltages(voltages)
        iterations = 0

        def cb(_xk: np.ndarray) -> None:
            nonlocal iterations
            iterations += 1

        sol, info = cg(
            self.assembly.matrix,
            b,
            rtol=self.rtol,
            atol=0.0,
            maxiter=5000,
            M=self._m_inv,
            callback=cb,
        )
        if info > 0:
            raise RuntimeError(f"PCG did not converge ({info} iterations)")
        self.stats.record(iterations)
        return sol

    def solve_currents(self, voltages: np.ndarray) -> np.ndarray:
        potentials = self.solve_potentials(voltages)
        return self.assembly.contact_currents(np.asarray(voltages, dtype=float), potentials)

    # ------------------------------------------------------------- direct path
    def _ensure_direct_engine(self) -> FDDirectEngine:
        if self._direct_engine is None:
            self._direct_engine = FDDirectEngine(
                self.assembly, use_cache=self.use_factor_cache, stats=self.stats
            )
        return self._direct_engine

    def _expected_iterations(self) -> float | None:
        """Observed PCG convergence, or a per-preconditioner prior."""
        if self.stats.n_iterative_solves > 0:
            return self.stats.mean_iterations
        return _ITERATION_PRIORS.get(self.preconditioner_name)

    def prepare_direct(self) -> bool:
        """Build (or load from the factor cache) the sparse LU factor now.

        Returns True when a factor is held afterwards; False when the direct
        path is unavailable (node ceiling, or a failed factorisation, which
        is also remembered so dispatch never retries it).  The service
        calls it once when it builds an engine, so requests pay solve cost
        only.
        """
        if self._direct_failed:
            return False
        if not 0 < self.assembly.matrix.shape[0] <= self.dispatch.max_direct_nodes:
            return False
        engine = self._ensure_direct_engine()
        try:
            engine.prepare()
        except RuntimeError:
            self._direct_failed = True
            return False
        return True

    def _solve_many_direct(self, v: np.ndarray) -> np.ndarray | None:
        """Factor-once / solve-all path; returns None on factorisation failure.

        RHS and potential blocks are processed in ``max_batch``-column chunks
        so a wide block never materialises the full ``(n_nodes, k)`` arrays
        at once — the same memory bound the iterative path observes.
        """
        engine = self._ensure_direct_engine()
        try:
            engine.prepare()
        except RuntimeError:
            self._direct_failed = True
            return None
        out = np.empty_like(v)
        for start in range(0, v.shape[1], self.max_batch):
            chunk = slice(start, min(start + self.max_batch, v.shape[1]))
            b = self.assembly.rhs_for_contact_voltages(v[:, chunk])
            potentials = engine.solve(b)
            out[:, chunk] = self.assembly.contact_currents(v[:, chunk], potentials)
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
        iteration for every column; per-column step lengths keep each column
        on the trajectory of its sequential :meth:`solve_currents`.  A block
        holding NaN or inf raises ``ValueError`` before either engine runs.
        """
        v = np.asarray(voltages, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.layout.n_contacts:
            raise ValueError("expected an (n_contacts, k) voltage block")
        check_finite_voltages(v)
        if v.shape[1] == 0:
            return np.empty_like(v)
        engine = self._ensure_direct_engine()
        decision = self.dispatch.choose_sparse(
            n_nodes=self.assembly.matrix.shape[0],
            n_rhs=v.shape[1],
            factor_cached=engine.factor_available(),
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
        """Nodal potentials for an ``(n_contacts, k)`` block of voltages."""
        v = np.asarray(voltages, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.layout.n_contacts:
            raise ValueError("expected an (n_contacts, k) voltage block")
        b = self.assembly.rhs_for_contact_voltages(v)
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
            active &= np.linalg.norm(r, axis=0) > tol
            z = precondition(r)
            rz_new = np.einsum("ij,ij->j", r, z)
            beta = np.where(rz > 0, rz_new / np.where(rz > 0, rz, 1.0), 0.0)
            p = z + beta * p
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
        by the sparse-LU direct engine run zero PCG iterations and are
        reported separately (``stats.n_direct_solves``), never diluting this
        mean.
        """
        return self.stats.mean_iterations
