"""Factor-once multi-RHS direct engine for the finite-difference backend.

The grid-of-resistors system matrix (:class:`~repro.substrate.fd.assembly.FDAssembly`)
is symmetric positive definite whenever at least one Dirichlet coupling exists
(contacts always stamp one), so a sparse LU of the interior Laplacian turns
every further right-hand side into two triangular sweeps over the fill.  This
is the FD counterpart of the eigenfunction solver's cached dense Cholesky:
:class:`~repro.substrate.dispatch.DispatchPolicy` (via
:meth:`~repro.substrate.dispatch.DispatchPolicy.choose_sparse`) routes wide
``solve_many`` blocks here when the preconditioned iteration is expected to
lose — which, with the near-exact fast-Poisson preconditioner, means weakly
preconditioned configurations (Jacobi / incomplete Cholesky) or workloads
that reuse one factor across very many columns.

Factorisations are shared through the process-wide
:mod:`~repro.substrate.factor_cache`, keyed on the layout fingerprint, the
physical profile and the grid resolution, so a second solver over the same
substrate (or a benchmark repetition) pays ~zero factor cost.  They are built
**without equilibration** (``options={"Equil": False}``): SuperLU does not
expose its row/column scalings, and a non-equilibrated factor is exactly
reconstructible from its component arrays — which is what lets the factor
artifact store persist these factors and load them back (as
:class:`~repro.substrate.factor_cache.SharedSparseLU`) instead of
refactoring after a restart.  The FD systems are diagonally dominant
grid-of-resistors matrices, so skipping equilibration costs no accuracy.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import splu

from ..factor_cache import factor_cache
from ..solver_base import SolveStats
from .assembly import FDAssembly

__all__ = ["FDDirectEngine", "fd_factor_cache_key"]

#: factor-cache kind string of the FD sparse factorisations
FD_FACTOR_KIND = "fd_direct_factor"


def fd_factor_cache_key(assembly: FDAssembly) -> tuple:
    """Process-wide cache key of one assembled FD system's factorisation."""
    grid = assembly.grid
    return (
        FD_FACTOR_KIND,
        grid.layout.fingerprint,
        grid.profile.cache_key,
        grid.nx,
        grid.ny,
        tuple(grid.hz.tolist()),
    )


class FDDirectEngine:
    """Sparse-LU factor-once / solve-all engine over one FD assembly.

    Parameters
    ----------
    assembly:
        The assembled FD system to factor.
    use_cache:
        Consult (and populate) the process-wide factor cache.  Disable to
        force a private factorisation (benchmarking cold paths).
    stats:
        Optional :class:`~repro.substrate.solver_base.SolveStats` that gets a
        ``record_factor_rebuild`` whenever :meth:`prepare` actually factors
        (as opposed to loading from the cache or its artifact store).
    """

    def __init__(
        self,
        assembly: FDAssembly,
        use_cache: bool = True,
        stats: SolveStats | None = None,
    ) -> None:
        self.assembly = assembly
        self.use_cache = bool(use_cache)
        self.stats = stats
        self._key = fd_factor_cache_key(assembly)
        self._lu = None

    @property
    def is_factored(self) -> bool:
        """True once a factorisation is held (built or loaded from cache)."""
        return self._lu is not None

    def factor_available(self) -> bool:
        """True if a factor is held or present in the process-wide cache."""
        return self._lu is not None or (
            self.use_cache and factor_cache().contains(self._key)
        )

    def prepare(self) -> None:
        """Build (or load from the cache) the sparse LU factorisation.

        Raises ``RuntimeError`` if the factorisation fails (exactly singular
        system — only possible for degenerate assemblies with no Dirichlet
        coupling at all).
        """
        if self._lu is not None:
            return
        if self.use_cache:
            cached = factor_cache().get(self._key)
            if cached is not None:
                self._lu = cached
                return
        try:
            # Equil=False keeps the factor reconstructible from components
            # (see module docstring) so the artifact store can persist it
            lu = splu(self.assembly.matrix.tocsc(), options={"Equil": False})
        except (RuntimeError, ValueError, MemoryError) as exc:
            raise RuntimeError(f"sparse LU factorisation failed: {exc}") from exc
        self._lu = lu
        if self.stats is not None:
            self.stats.record_factor_rebuild()
        if self.use_cache:
            factor_cache().put(self._key, lu)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Nodal potentials for an ``(n_nodes,)`` or ``(n_nodes, k)`` RHS."""
        self.prepare()
        return self._lu.solve(np.asarray(b, dtype=float))
