"""Panel discretisation of the substrate top surface.

The eigenfunction (surface-variable) solver of Section 2.3 discretises the top
surface into a uniform grid of square panels (Figure 2-5).  Contacts are
represented by the set of panels whose centres they cover; currents live on
panels, potentials are collocated at panel centres, and the contact current is
the sum of its panel currents.

Both black boxes of Chapter 2 map contacts onto these cells (the FD
solver's top grid nodes are its panels): :func:`cell_owners` is the one
ownership rule of ``PanelGrid`` and ``Grid3D``, and :func:`contact_map` the
one contact-to-cell spread and sum both solvers build from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .contact import ContactLayout

__all__ = ["PanelGrid", "cell_owners", "contact_map"]


def cell_owners(layout: ContactLayout, nx: int, ny: int) -> np.ndarray:
    """The contact owning each cell of a uniform ``nx x ny`` surface grid.

    Returns a flat ``(nx * ny,)`` integer array, cell ``(i, j)`` at
    ``i * ny + j``, holding the owning contact's index or -1.  A contact
    covers the cells whose centres lie in its closed rectangle; one that
    covers no centre along either axis (narrower than a cell) covers the
    single cell under its centroid.  Where contacts touch or overlap, the
    first in layout order keeps the cell.  Raises ``ValueError`` when a
    contact owns no cell.
    """
    x, y, w, h = layout.boxes.T
    n = x.size

    def span(lo, width, pitch, count):
        # [first, stop) cell range per contact along one axis
        centres = (np.arange(count) + 0.5) * pitch
        first = np.searchsorted(centres, lo, side="left")
        stop = np.searchsorted(centres, lo + width, side="right")
        snapped = np.clip(((lo + 0.5 * width) / pitch).astype(int), 0, count - 1)
        return first, stop, snapped

    i1, i2, i_snap = span(x, w, layout.size_x / nx, nx)
    j1, j2, j_snap = span(y, h, layout.size_y / ny, ny)
    snap = (i2 <= i1) | (j2 <= j1)
    i1, i2 = np.where(snap, i_snap, i1), np.where(snap, i_snap + 1, i2)
    j1, j2 = np.where(snap, j_snap, j1), np.where(snap, j_snap + 1, j2)
    # every (contact, covered cell) pair, contact by contact
    widths = j2 - j1
    sizes = (i2 - i1) * widths
    contact = np.repeat(np.arange(n), sizes)
    offset = np.arange(contact.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    rows = i1[contact] + offset // widths[contact]
    cells = rows * ny + j1[contact] + offset % widths[contact]
    # the lowest contact index, i.e. the first owner, wins each cell
    owner = np.full(nx * ny, n)
    np.minimum.at(owner, cells, contact)
    owner[owner == n] = -1
    empty = np.flatnonzero(np.bincount(owner[owner >= 0], minlength=n) == 0)
    if empty.size:
        raise ValueError(f"contact {empty[0]} owns no grid cell; refine the grid")
    return owner


def contact_map(
    owner: np.ndarray, n_contacts: int
) -> tuple[np.ndarray, np.ndarray, sparse.csr_matrix]:
    """``(cells, index, incidence)`` of a flat :func:`cell_owners` array.

    ``cells`` are the owned cells in ascending order: ``v[index]`` spreads
    one value per contact onto them, and the ``(n_contacts, cells.size)``
    0/1 ``incidence @ q`` sums cell values back per contact.
    """
    cells = np.flatnonzero(owner >= 0)
    index = owner[cells]
    incidence = sparse.csr_matrix(
        (np.ones(cells.size), (index, np.arange(cells.size))),
        shape=(n_contacts, cells.size),
    )
    return cells, index, incidence


@dataclass
class PanelGrid:
    """Uniform panel grid over the top surface.

    Parameters
    ----------
    layout:
        The contact layout defining the surface size and the contacts.
    nx, ny:
        Number of panels along x and y.

    Attributes
    ----------
    panel_to_contact:
        Flat array of length ``nx*ny`` mapping each panel to its contact index
        or -1 for non-contact panels (:func:`cell_owners`).
    all_contact_panels:
        Ascending flat indices of the panels some contact owns.
    """

    layout: ContactLayout
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx < 2 or self.ny < 2:
            raise ValueError("panel grid must be at least 2 x 2")
        self.hx = self.layout.size_x / self.nx
        self.hy = self.layout.size_y / self.ny
        self.panel_area = self.hx * self.hy
        # panel centre coordinates
        self.xc = (np.arange(self.nx) + 0.5) * self.hx
        self.yc = (np.arange(self.ny) + 0.5) * self.hy
        self.panel_to_contact = cell_owners(self.layout, self.nx, self.ny)
        self.all_contact_panels = np.flatnonzero(self.panel_to_contact >= 0)

    @classmethod
    def for_layout(
        cls, layout: ContactLayout, panels_per_min_contact: int = 2, max_panels: int = 256
    ) -> "PanelGrid":
        """Choose a panel resolution that resolves the smallest contact.

        The grid pitch is chosen so that the smallest contact side spans at
        least ``panels_per_min_contact`` panels, capped at ``max_panels`` per
        side, and rounded to a power of two for fast DCTs.
        """
        min_side = min(min(c.width, c.height) for c in layout.contacts)
        target = panels_per_min_contact * layout.size_x / min_side
        n = 1 << int(np.ceil(np.log2(max(8.0, min(target, max_panels)))))
        n = min(n, max_panels)
        return cls(layout, n, n)

    # -------------------------------------------------------------- accessors
    @property
    def n_panels(self) -> int:
        return self.nx * self.ny

    @property
    def n_contact_panels(self) -> int:
        return int(self.all_contact_panels.size)

    def panel_centers(self) -> np.ndarray:
        """(n_panels, 2) array of panel centre coordinates (flat index order)."""
        xx, yy = np.meshgrid(self.xc, self.yc, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])
