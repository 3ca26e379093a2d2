"""Panel current-to-potential operator via the eigendecomposition (Figure 2-6).

The surface is discretised into a uniform ``nx x ny`` panel grid
(:class:`~repro.geometry.panels.PanelGrid`).  Given total currents per panel,
the operator

1. forms the cosine-mode coefficients of the surface current density
   (a 2-D DCT of the panel currents),
2. scales each mode by its eigenvalue ``lambda_mn`` (and the cosine-basis
   normalisation), and
3. evaluates the resulting potential at the panel centres (inverse DCT).

With collocation at panel centres the whole operator is exactly
``A = C' diag(w_mn) C`` where ``C`` is the (non-normalised) 2-D DCT-II matrix
and ``w_mn = lambda_mn * eps_m * eps_n / (a b)``; it is therefore symmetric
positive semi-definite by construction, which Section 2.4 relies on.

Two apply paths are provided: a cached cosine-matrix path (used for modest
grids and as the reference in tests) and a DCT path that is asymptotically
``O(N log N)``.  The DCT path is one pipeline, written once: orthonormal
``scipy.fft`` DCT-II over the grid axes of a batch-major ``(k, nx, ny)``
stack, for which ``A = C_o' diag(w_o) C_o`` needs no correction terms.  The
contact-panel block apply of the Krylov solves and the whole-grid
:meth:`SurfaceOperator.apply_grid` both run it.

The contact-panel block ``A_cc`` that the direct solvers factor has a closed
form.  In the orthonormal form ``A = C_o' diag(w_o) C_o``, ``C_o`` is the
tensor product of the 1-D factors ``d_m cos(pi m (i + 1/2) / nx)`` (mode
``m``, panel column ``i``; ``d_m^2`` is ``1/nx`` for ``m = 0`` and ``2/nx``
otherwise) and ``e_n cos(pi n (j + 1/2) / ny)``, and
``cos a cos b = [cos(a - b) + cos(a + b)] / 2`` turns each axis' product of
two panel cosines into a difference and a sum term.  Every entry of ``A_cc``
is therefore four lookups in one ``(2nx, 2ny)`` table

    K[a, b] = 1/4 sum_mn w_o[m, n] d_m^2 e_n^2 cos(pi m a / nx) cos(pi n b / ny)

(``w_o d_m^2 e_n^2`` is ``w_mn``), namely
``A_cc[p, q] = K[|di|, |dj|] + K[|di|, sj] + K[si, |dj|] + K[si, sj]`` with
``di = i_p - i_q`` and ``si = i_p + i_q + 1`` (``dj``, ``sj`` likewise): a
Toeplitz-plus-Hankel gather.  Assembly costs ``O(nx ny (nx + ny) + ncp^2)``
instead of ``O(ncp nx ny log(nx ny))`` for one inverse DCT per row.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft

from ...geometry.panels import PanelGrid
from ..dispatch import resolve_fft_workers
from ..profile import SubstrateProfile
from .eigenvalues import eigenvalue_table

__all__ = ["SurfaceOperator"]

#: A_cc entries per chunk of :meth:`SurfaceOperator.contact_block_rows`, so
#: its index arrays (8 bytes an entry) stay cache-sized: gathering whole
#: 256-row blocks of a 4096-panel A_cc ran ~2x slower on a 2-vCPU host.
_GATHER_ENTRIES = 1 << 15


def _cos_table(n: int) -> np.ndarray:
    """``cos(pi m a / n)`` for modes ``m < n`` (rows) and offsets ``a < 2n``."""
    # m*a is reduced modulo the period 2n, so the argument stays in [0, 2pi)
    ma = np.outer(np.arange(n), np.arange(2 * n)) % (2 * n)
    return np.cos(np.pi * ma / n)


class SurfaceOperator:
    """Current-to-potential operator on the panel grid.

    Parameters
    ----------
    grid:
        Panel discretisation of the top surface.
    profile:
        Layered substrate profile (must have the same lateral size as the
        grid's layout).
    use_fft:
        Apply through ``scipy.fft.dct`` (True, default) or through cached
        cosine matrices (False).
    fft_workers:
        Worker-thread count passed to every ``scipy.fft`` transform, resolved
        through :func:`~repro.substrate.dispatch.resolve_fft_workers`
        (default: all CPUs the process may run on, when there is more than
        one, else single-threaded).
    """

    def __init__(
        self,
        grid: PanelGrid,
        profile: SubstrateProfile,
        use_fft: bool = True,
        fft_workers: int | None = None,
    ) -> None:
        if not np.isclose(grid.layout.size_x, profile.size_x) or not np.isclose(
            grid.layout.size_y, profile.size_y
        ):
            raise ValueError("panel grid and substrate profile sizes disagree")
        self.grid = grid
        self.profile = profile
        self.use_fft = use_fft
        #: resolved ``workers=`` argument for every scipy.fft call (None = 1)
        self.fft_workers = resolve_fft_workers(fft_workers)

        nx, ny = grid.nx, grid.ny
        lam = eigenvalue_table(nx, ny, profile)
        eps_m = np.where(np.arange(nx) == 0, 1.0, 2.0)
        eps_n = np.where(np.arange(ny) == 0, 1.0, 2.0)
        area = profile.size_x * profile.size_y
        #: modal weights w_mn = lambda_mn * eps_m * eps_n / (a*b)
        self.weights = lam * (eps_m[:, None] * eps_n[None, :]) / area
        #: the same operator through orthonormal DCTs: A = C_o' diag(w_o) C_o
        #: with C_o the orthonormal DCT-II, for which the eps factors cancel
        #: into w_o = lambda_mn * nx * ny / (a*b).
        self.weights_ortho = lam * (nx * ny) / area

        self._cos_x: np.ndarray | None = None
        self._cos_y: np.ndarray | None = None
        self._block_buffer: np.ndarray | None = None
        #: flattened (2nx, 2ny) cosine-kernel table K of A_cc (module
        #: docstring), built by the first contact_block_rows call
        self._kernel: np.ndarray | None = None
        if not use_fft:
            self._build_cosine_matrices()

    # ----------------------------------------------------------------- set-up
    def _build_cosine_matrices(self) -> None:
        nx, ny = self.grid.nx, self.grid.ny
        m = np.arange(nx)[:, None]
        i = np.arange(nx)[None, :]
        self._cos_x = np.cos(np.pi * m * (i + 0.5) / nx)
        n = np.arange(ny)[:, None]
        j = np.arange(ny)[None, :]
        self._cos_y = np.cos(np.pi * n * (j + 0.5) / ny)

    # ------------------------------------------------------------------ apply
    def apply_grid(self, panel_currents: np.ndarray) -> np.ndarray:
        """Apply the operator to panel currents on the grid.

        Accepts a single ``(nx, ny)`` array or a stacked ``(nx, ny, k)`` block
        of ``k`` independent current distributions; the block form runs the
        2-D DCTs over all columns in one library call.
        """
        q = np.asarray(panel_currents, dtype=float)
        if q.ndim not in (2, 3) or q.shape[:2] != (self.grid.nx, self.grid.ny):
            raise ValueError("panel current array has the wrong shape")
        if not self.use_fft:
            return self._apply_matrix(q)
        if q.ndim == 2:
            return self._apply_dct(q[None])[0]
        # the DCT pipeline stacks the batch axis first
        return np.moveaxis(self._apply_dct(np.moveaxis(q, 2, 0)), 0, 2)

    def _apply_matrix(self, q: np.ndarray) -> np.ndarray:
        if self._cos_x is None or self._cos_y is None:
            self._build_cosine_matrices()
        if q.ndim == 2:
            modal = self._cos_x @ q @ self._cos_y.T
            modal *= self.weights
            return self._cos_x.T @ modal @ self._cos_y
        # batched: pairwise BLAS contractions (a naive triple einsum would be
        # O(nx^2 ny^2) per column)
        modal = np.einsum(
            "mi,ijk,nj->mnk", self._cos_x, q, self._cos_y, optimize=True
        )
        modal *= self.weights[:, :, None]
        return np.einsum(
            "mi,mnk,nj->ijk", self._cos_x, modal, self._cos_y, optimize=True
        )

    def _apply_dct(self, grids: np.ndarray) -> np.ndarray:
        """``A = C_o' diag(w_o) C_o`` on a batch-major ``(k, nx, ny)`` stack."""
        workers = self.fft_workers
        modal = sp_fft.dctn(grids, type=2, norm="ortho", axes=(1, 2), workers=workers)
        modal *= self.weights_ortho
        return sp_fft.idctn(modal, type=2, norm="ortho", axes=(1, 2), workers=workers)

    def apply_flat(self, panel_currents_flat: np.ndarray) -> np.ndarray:
        """Apply to flat panel currents (flat index ``i*ny + j``).

        Accepts ``(n_panels,)`` vectors or ``(n_panels, k)`` blocks.
        """
        q = np.asarray(panel_currents_flat, dtype=float)
        shaped = q.reshape((self.grid.nx, self.grid.ny) + q.shape[1:])
        return self.apply_grid(shaped).reshape(q.shape)

    def apply_contact_panels(self, q_contact: np.ndarray) -> np.ndarray:
        """Apply the operator restricted to contact panels.

        Non-contact panels carry zero current (the "zero-padding" step of
        Figure 2-6); the result is the potential at the contact panels only
        (the "lifting" step restricted to contacts).  Accepts single vectors
        or ``(n_contact_panels, k)`` blocks.
        """
        q_contact = np.asarray(q_contact, dtype=float)
        full = np.zeros((self.grid.n_panels,) + q_contact.shape[1:])
        full[self.grid.all_contact_panels] = q_contact
        pot = self.apply_flat(full)
        return pot[self.grid.all_contact_panels]

    def apply_contact_panels_block(self, q_block: np.ndarray) -> np.ndarray:
        """Apply the contact-panel block to a batch-major ``(k, ncp)`` block.

        This is the hot path of the multi-RHS solves.  The batch-major layout
        keeps each column's ``(nx, ny)`` grid contiguous for the stacked DCTs,
        the full-grid scatter buffer is reused across calls (non-contact
        panels stay zero between calls because only contact positions are
        ever written), and the stack runs the one orthonormal DCT pipeline.
        """
        q_block = np.asarray(q_block, dtype=float)
        if not self.use_fft:
            return self.apply_contact_panels(q_block.T).T
        k = q_block.shape[0]
        buf = self._block_buffer
        if buf is None or buf.shape[0] < k:
            buf = self._block_buffer = np.zeros((k, self.grid.n_panels))
        work = buf[:k]
        cp = self.grid.all_contact_panels
        work[:, cp] = q_block
        pot = self._apply_dct(work.reshape(k, self.grid.nx, self.grid.ny))
        return pot.reshape(k, -1)[:, cp]

    # ------------------------------------------------------------- diagnostics
    def contact_block_diagonal(self) -> np.ndarray:
        """Diagonal of the contact-panel block ``A_cc`` (Jacobi preconditioner).

        ``A_pp = sum_mn w_mn cos_m(x_p)^2 cos_n(y_p)^2`` which factorises into
        two small matrix products.
        """
        nx, ny = self.grid.nx, self.grid.ny
        if self._cos_x is None or self._cos_y is None:
            self._build_cosine_matrices()
        cx2 = self._cos_x ** 2  # (modes m, panels i)
        cy2 = self._cos_y ** 2
        diag_grid = cx2.T @ self.weights @ cy2  # (i, j)
        return diag_grid.ravel()[self.grid.all_contact_panels]

    def dense_contact_block(self) -> np.ndarray:
        """Explicitly form ``A_cc`` (small problems / tests only)."""
        ncp = self.grid.n_contact_panels
        out = np.empty((ncp, ncp))
        e = np.zeros(ncp)
        for k in range(ncp):
            e[k] = 1.0
            out[:, k] = self.apply_contact_panels(e)
            e[k] = 0.0
        return out

    def contact_block_rows(
        self, row_start: int, row_stop: int, max_batch: int = 256
    ) -> np.ndarray:
        """Rows ``A_cc[row_start:row_stop, :]`` gathered from the cosine-kernel table.

        The identity ``cos a cos b = [cos(a - b) + cos(a + b)] / 2``, applied
        per axis to ``A = C_o' diag(w_o) C_o``, gives
        ``A_cc[p, q] = K[|di|, |dj|] + K[|di|, sj] + K[si, |dj|] + K[si, sj]``
        with ``di = i_p - i_q``, ``si = i_p + i_q + 1`` (``dj``, ``sj``
        likewise) and the ``(2nx, 2ny)`` table
        ``K[a, b] = 1/4 sum_mn w_mn cos(pi m a / nx) cos(pi n b / ny)``
        (module docstring).  ``K`` costs two small matmuls, once per
        operator, and each entry a four-term gather: ``O(nx ny (nx + ny) +
        ncp^2)`` in all, against ``O(ncp nx ny log(nx ny))`` for one inverse
        DCT per row.  The four terms are symmetric in ``p`` and ``q`` and
        summed in one order, so the matrix is exactly symmetric.

        Rows are gathered in chunks of at most ``max_batch`` rows and about
        ``_GATHER_ENTRIES`` entries, which keeps the index arrays cache-sized.
        Feeds the factor-once direct solve: the whole matrix via
        :meth:`contact_block_matrix`, and the rows of the bordered floating
        system one block at a time.
        """
        ncp = self.grid.n_contact_panels
        if not 0 <= row_start <= row_stop <= ncp:
            raise ValueError(
                f"row window [{row_start}, {row_stop}) outside the valid range "
                f"0 <= row_start <= row_stop <= {ncp}"
            )
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        nx, ny = self.grid.nx, self.grid.ny
        if self._kernel is None:
            self._kernel = 0.25 * (_cos_table(nx).T @ self.weights @ _cos_table(ny)).ravel()
        kernel = self._kernel
        # int64: flat indices into K reach (2nx)(2ny), past int32 on big grids
        i, j = np.divmod(self.grid.all_contact_panels.astype(np.int64), ny)
        # K[a, b] is kernel[a * 2ny + b], and ix = i * 2ny scales the rows:
        # rows |di| and si of K start at |ix_p - ix_q| and ix_p + ix_q + 2ny
        ix = i * (2 * ny)
        ix1, j1 = ix + 2 * ny, j + 1
        out = np.empty((row_stop - row_start, ncp))
        step = max(1, min(max_batch, _GATHER_ENTRIES // max(ncp, 1)))
        for start in range(row_start, row_stop, step):
            stop = min(start + step, row_stop)
            ip, jp = ix[start:stop, None], j[start:stop, None]
            di, si = np.abs(ip - ix), ip + ix1
            dj, sj = np.abs(jp - j), jp + j1
            out[start - row_start : stop - row_start] = (
                np.take(kernel, di + dj)
                + np.take(kernel, di + sj)
                + np.take(kernel, si + dj)
                + np.take(kernel, si + sj)
            )
        return out

    def contact_block_matrix(self, max_batch: int = 256) -> np.ndarray:
        """Dense ``A_cc`` gathered from the cosine-kernel table (fast path).

        See :meth:`contact_block_rows`; this materialises all rows at once
        and feeds the in-core factor-once multi-RHS direct solve.
        """
        ncp = self.grid.n_contact_panels
        return self.contact_block_rows(0, ncp, max_batch=max_batch)
