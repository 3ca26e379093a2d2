"""Fast-Poisson (DCT) preconditioner for the finite-difference solver.

Section 2.2.2: with uniform boundary conditions on each face, the
grid-of-resistors system decouples under a 2-D discrete cosine transform in
``x`` and ``y`` into independent tridiagonal systems in ``z`` — a fast,
*exact* solver for that modified problem.  The actual top surface mixes
Dirichlet (contact) and Neumann (bare surface) nodes, so the fast solver is
used as a preconditioner ``M`` for PCG.  Three variants differ in how the top
face is treated when building ``M``:

* ``dirichlet`` — pretend every top node has a contact above it (``p = 1``),
* ``neumann``  — pretend no top node does (``p = 0``),
* ``area_weighted`` — use ``p = (total contact area) / (total top area)``,
  the paper's best-performing choice (Table 2.1).
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft

from ..dispatch import resolve_fft_workers
from .grid import Grid3D

__all__ = ["FastPoissonPreconditioner"]

_TOP_FRACTIONS = ("dirichlet", "neumann", "area_weighted")


class FastPoissonPreconditioner:
    """Exact DCT-based solver for the uniform-boundary-condition problem.

    Parameters
    ----------
    grid:
        The finite-difference grid.
    top_mode:
        One of ``"dirichlet"``, ``"neumann"``, ``"area_weighted"`` or a float
        in [0, 1] giving the fraction ``p`` of the Dirichlet top conductance
        to include.
    fft_workers:
        Worker-thread count for the lateral DCT transforms, resolved through
        :func:`~repro.substrate.dispatch.resolve_fft_workers` (default: all
        CPUs the process may run on, when there is more than one).
    """

    def __init__(
        self,
        grid: Grid3D,
        top_mode: str | float = "area_weighted",
        fft_workers: int | None = None,
    ) -> None:
        self.grid = grid
        self.top_fraction = self._resolve_fraction(top_mode)
        self.fft_workers = resolve_fft_workers(fft_workers)
        self._prepare_modal_systems()

    def _resolve_fraction(self, top_mode: str | float) -> float:
        if isinstance(top_mode, str):
            if top_mode not in _TOP_FRACTIONS:
                raise ValueError(f"unknown top_mode {top_mode!r}")
            if top_mode == "dirichlet":
                return 1.0
            if top_mode == "neumann":
                return 0.0
            return self.grid.contact_area_fraction()
        frac = float(top_mode)
        if not 0.0 <= frac <= 1.0:
            raise ValueError("top fraction must lie in [0, 1]")
        return frac

    # ------------------------------------------------------------------ setup
    def _prepare_modal_systems(self) -> None:
        g = self.grid
        nx, ny, nz = g.nx, g.ny, g.nz
        gx, gy = g.lateral_conductances()
        gz = g.vertical_conductances()

        # 1-D Neumann path-Laplacian eigenvalues under DCT-II
        mu_x = 2.0 - 2.0 * np.cos(np.pi * np.arange(nx) / nx)
        mu_y = 2.0 - 2.0 * np.cos(np.pi * np.arange(ny) / ny)

        # per-mode, per-plane diagonal: shape (nz, nx, ny)
        diag = (
            gx[:, None, None] * mu_x[None, :, None]
            + gy[:, None, None] * mu_y[None, None, :]
        )
        if nz > 1:
            diag[:-1] += gz[:, None, None]
            diag[1:] += gz[:, None, None]
        diag[0] += self.top_fraction * g.top_dirichlet_conductance()
        if g.profile.grounded_backplane:
            diag[-1] += g.bottom_dirichlet_conductance()

        # guard the all-Neumann zero mode (floating backplane, p = 0)
        floor = 1e-12 * float(diag.max())
        diag[:, 0, 0] = np.maximum(diag[:, 0, 0], floor)

        self._diag = diag
        self._off = gz  # coupling between plane k and k+1 (negative off-diagonal)
        # Precompute the forward elimination factors of the Thomas algorithm,
        # vectorised over all (mode_x, mode_y) pairs.
        c_prime = np.empty_like(diag[:-1]) if nz > 1 else np.empty((0, nx, ny))
        denom = np.empty_like(diag)
        denom[0] = diag[0]
        for k in range(nz - 1):
            c_prime[k] = -gz[k] / denom[k]
            denom[k + 1] = diag[k + 1] + gz[k] * c_prime[k]
        self._c_prime = c_prime
        self._denom = denom

    # ------------------------------------------------------------------ apply
    def solve(self, residual: np.ndarray) -> np.ndarray:
        """Apply ``M^{-1}`` to a nodal residual vector (or ``(n, k)`` block).

        Blocks are solved in one pass: the lateral DCTs act on all columns at
        once and the Thomas recurrences broadcast over the trailing axis.
        """
        g = self.grid
        nx, ny, nz = g.nx, g.ny, g.nz
        residual = np.asarray(residual, dtype=float)
        batch = residual.shape[1:]  # () for a vector, (k,) for a block
        r = residual.reshape((nz, nx, ny) + batch)
        trail = (slice(None),) * 2 + (None,) * len(batch)

        # forward 2-D DCT (orthonormal) over the lateral directions
        rhat = sp_fft.dctn(
            r, type=2, norm="ortho", axes=(1, 2), workers=self.fft_workers
        )

        # Thomas algorithm per mode (vectorised over modes and RHS columns)
        denom = self._denom[(slice(None),) + trail] if batch else self._denom
        c_prime = self._c_prime[(slice(None),) + trail] if batch else self._c_prime
        d = np.empty_like(rhat)
        d[0] = rhat[0] / denom[0]
        for k in range(1, nz):
            d[k] = (rhat[k] + self._off[k - 1] * d[k - 1]) / denom[k]
        x = np.empty_like(d)
        x[-1] = d[-1]
        for k in range(nz - 2, -1, -1):
            x[k] = d[k] - c_prime[k] * x[k + 1]

        out = sp_fft.idctn(
            x, type=2, norm="ortho", axes=(1, 2), workers=self.fft_workers
        )
        return out.reshape(residual.shape)

    def as_dense(self) -> np.ndarray:  # pragma: no cover - test helper for tiny grids
        """Explicit dense ``M^{-1}`` (tiny grids only, used in tests)."""
        n = self.grid.n_nodes
        out = np.empty((n, n))
        e = np.zeros(n)
        for k in range(n):
            e[k] = 1.0
            out[:, k] = self.solve(e)
            e[k] = 0.0
        return out
