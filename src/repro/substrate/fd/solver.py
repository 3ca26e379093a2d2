"""Finite-difference black-box substrate solver (Section 2.2).

Solves the grid-of-resistors system with preconditioned conjugate gradients
for each set of contact voltages and returns the contact currents, satisfying
the same black-box contract as the eigenfunction solver.  PCG is written
once, as a multi-RHS iteration; the one-vector
:meth:`~FiniteDifferenceSolver.solve_currents` and
:meth:`~FiniteDifferenceSolver.solve_potentials` are one-column runs of it,
always iterative, so they count their PCG iterations (Tables 2.1 and 2.2).

This is the finite-difference backend of the frame both physical solvers
share (``solver_base._DispatchingSolver``), which routes each
:meth:`~FiniteDifferenceSolver.solve_many` block
(:meth:`~repro.substrate.dispatch.DispatchPolicy.choose_sparse`) between that
PCG iteration and a factor-once sparse LU of the system matrix (symmetric
positive definite whenever a Dirichlet coupling exists; contacts always stamp
one).  The routing is iteration-aware: the near-exact fast-Poisson
preconditioner converges in a couple of iterations on laterally uniform
profiles and then beats a triangular sweep over the LU fill per column, while
weakly preconditioned configurations (Jacobi, incomplete Cholesky) cross over
to the direct path for wide blocks.  The process-wide factor cache holds the
LU, keyed on the layout, profile and grid resolution, in RAM only: a
restarted process rebuilds it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError
from scipy.sparse.linalg import SuperLU, splu

from ...geometry.contact import ContactLayout
from ..dispatch import DispatchDecision, DispatchPolicy
from ..profile import SubstrateProfile
from ..solver_base import _DispatchingSolver
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


class FiniteDifferenceSolver(_DispatchingSolver):
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
        self.profile = profile
        self.grid = Grid3D(layout, profile, nx, ny, planes_per_layer)
        self.assembly = FDAssembly(self.grid)
        self.preconditioner_name = preconditioner
        self._m_inv = make_preconditioner(
            preconditioner, self.assembly, fft_workers=fft_workers
        )
        self.rtol = rtol
        hz = tuple(self.grid.hz.tolist())
        super().__init__(
            layout,
            max_batch,
            dispatch if dispatch is not None else DispatchPolicy(),
            use_factor_cache,
            (FD_FACTOR_KIND, layout.fingerprint, profile.cache_key, nx, ny, hz),
        )

    def solve_potentials(self, voltages: np.ndarray) -> np.ndarray:
        """Nodal potentials for one voltage vector: a one-column PCG run."""
        return self.solve_potentials_many(self._one_column(voltages))[:, 0]

    def solve_potentials_many(self, voltages: np.ndarray) -> np.ndarray:
        """Nodal potentials for an ``(n_contacts, k)`` block of voltages.

        A block holding NaN or inf raises ``ValueError``, as in
        :meth:`solve_many`.
        """
        return self._pcg(self.assembly.rhs_for_contact_voltages(self._block(voltages)))

    # ---------------------------------------------------------------- dispatch
    def _direct_limits(self) -> tuple[int, int]:
        return self.assembly.matrix.shape[0], self.dispatch.max_direct_nodes

    def _choose(self, n_rhs: int, **state: bool) -> DispatchDecision:
        # observed PCG convergence, or a per-preconditioner prior
        if self.stats.n_iterative_solves > 0:
            iterations = self.stats.mean_iterations
        else:
            iterations = _ITERATION_PRIORS.get(self.preconditioner_name)
        return self.dispatch.choose_sparse(
            n_nodes=self.assembly.matrix.shape[0],
            n_rhs=n_rhs,
            expected_iterations=iterations,
            **state,
        )

    # ------------------------------------------------------------- engines
    def _build_direct_factor(self) -> SuperLU:
        """Sparse LU of the system matrix (SciPy's SuperLU, default options).

        The LU lives in the process-wide factor cache only: the artifact
        store does not persist it, because a SuperLU cannot be rebuilt from
        its arrays and solving through them ran ~1.5-2.5x slower than the
        native factor.  So after a restart it is rebuilt once (~0.2 s on a
        7,168-node grid), counted like any cache miss.

        Raises ``LinAlgError`` if the factorisation fails (exactly singular
        system: only possible for degenerate assemblies with no Dirichlet
        coupling at all).
        """
        try:
            return splu(self.assembly.matrix.tocsc())
        except (RuntimeError, ValueError, MemoryError) as exc:
            raise LinAlgError(f"sparse LU factorisation failed: {exc}") from exc

    def _solve_direct_chunk(self, v: np.ndarray, lu: SuperLU) -> tuple[np.ndarray, None]:
        b = self.assembly.rhs_for_contact_voltages(v)
        return self.assembly.contact_currents(v, lu.solve(b)), None

    def _solve_iterative_chunk(self, v: np.ndarray) -> tuple[np.ndarray, None]:
        b = self.assembly.rhs_for_contact_voltages(v)
        return self.assembly.contact_currents(v, self._pcg(b)), None

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
