"""Sparse assembly of the grid-of-resistors system matrix.

Builds the symmetric positive definite nodal conductance matrix ``A`` of
Section 2.2 (eq. 2.9): every resistor between nodes ``a`` and ``b`` with
conductance ``g`` stamps ``+g`` on both diagonals and ``-g`` on the two
off-diagonal positions.  Neumann boundaries (sidewalls, non-contact top
surface, floating bottom) are handled by simply omitting resistors; Dirichlet
boundaries (contacts, grounded backplane) are eliminated into the diagonal
and the right-hand side.

Top node ``(i, j, 0)`` is flat node ``i * ny + j``, the index of panel
``(i, j)``, so contacts enter through the eigenfunction solver's contact map
(:func:`~repro.geometry.panels.contact_map` over ``Grid3D.top_contact_owner``):
one owner index spreads voltages, one sparse incidence sums currents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ...geometry.panels import contact_map
from .grid import Grid3D

__all__ = ["FDAssembly"]


@dataclass
class FDAssembly:
    """Assembled finite-difference system for one grid.

    Attributes
    ----------
    matrix:
        The ``n_nodes x n_nodes`` CSR nodal conductance matrix (Dirichlet
        couplings folded into the diagonal).
    grid:
        The underlying :class:`Grid3D`.
    """

    grid: Grid3D

    def __post_init__(self) -> None:
        self._nodes, self._owner, self._incidence = contact_map(
            self.grid.top_contact_owner.ravel(), self.grid.layout.n_contacts
        )
        self._g_top = self.grid.top_dirichlet_conductance()
        self.matrix = self._assemble()

    # ----------------------------------------------------------------- stamps
    def _assemble(self) -> sparse.csr_matrix:
        g = self.grid
        nx, ny, nz = g.nx, g.ny, g.nz
        n = g.n_nodes
        gx, gy = g.lateral_conductances()
        gz = g.vertical_conductances()

        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        diag = np.zeros(n)

        def stamp(a: np.ndarray, b: np.ndarray, gval: np.ndarray | float) -> None:
            gval = np.broadcast_to(np.asarray(gval, dtype=float), a.shape).ravel()
            a = a.ravel()
            b = b.ravel()
            np.add.at(diag, a, gval)
            np.add.at(diag, b, gval)
            rows.append(a)
            cols.append(b)
            vals.append(-gval)
            rows.append(b)
            cols.append(a)
            vals.append(-gval)

        ii, jj, kk = np.meshgrid(
            np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
        )
        # x-direction resistors
        sel = ii < nx - 1
        a = g.node_index(ii[sel], jj[sel], kk[sel])
        b = g.node_index(ii[sel] + 1, jj[sel], kk[sel])
        stamp(a, b, gx[kk[sel]])
        # y-direction resistors
        sel = jj < ny - 1
        a = g.node_index(ii[sel], jj[sel], kk[sel])
        b = g.node_index(ii[sel], jj[sel] + 1, kk[sel])
        stamp(a, b, gy[kk[sel]])
        # z-direction resistors
        sel = kk < nz - 1
        a = g.node_index(ii[sel], jj[sel], kk[sel])
        b = g.node_index(ii[sel], jj[sel], kk[sel] + 1)
        stamp(a, b, gz[kk[sel]])

        # Dirichlet contact nodes just above the surface: eliminate them into
        # the diagonal of the top node directly below (Section 2.2.1, choice 1).
        diag[self._nodes] += self._g_top

        # Grounded backplane: Dirichlet nodes below the bottom plane at 0 V.
        if g.profile.grounded_backplane:
            g_bot = g.bottom_dirichlet_conductance()
            ii2, jj2 = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
            nodes = g.node_index(ii2.ravel(), jj2.ravel(), nz - 1)
            np.add.at(diag, nodes, g_bot)

        rows.append(np.arange(n))
        cols.append(np.arange(n))
        vals.append(diag)
        mat = sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )
        return mat.tocsr()

    # ------------------------------------------------------------------- rhs
    def rhs_for_contact_voltages(self, voltages: np.ndarray) -> np.ndarray:
        """Right-hand side for prescribed contact voltages.

        Accepts one voltage vector (length ``n_contacts``) or an
        ``(n_contacts, k)`` block, returning the matching ``(n_nodes,)`` or
        ``(n_nodes, k)`` right-hand sides.
        """
        voltages = np.asarray(voltages, dtype=float)
        b = np.zeros((self.grid.n_nodes,) + voltages.shape[1:])
        b[self._nodes] = self._g_top * voltages[self._owner]
        return b

    def contact_currents(
        self, voltages: np.ndarray, potentials: np.ndarray
    ) -> np.ndarray:
        """Contact currents from the solved nodal potentials.

        The current into contact ``c`` is the sum over its Dirichlet resistors
        of ``g_top * (V_c - phi_node)`` (Ohm's law at the contact branch).
        ``voltages``/``potentials`` may also be ``(n, k)`` blocks of solves.
        """
        voltages = np.asarray(voltages, dtype=float)
        drop = voltages[self._owner] - potentials[self._nodes]
        return self._incidence @ (self._g_top * drop)
