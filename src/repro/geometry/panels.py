"""Panel discretisation of the substrate top surface.

The eigenfunction (surface-variable) solver of Section 2.3 discretises the top
surface into a uniform grid of square panels (Figure 2-5).  Contacts are
represented by the set of panels whose centres they cover; currents live on
panels, potentials are collocated at panel centres, and the contact current is
the sum of its panel currents.  ``panel_to_contact`` is the one ownership
record: the eigenfunction solver builds its contact-to-panel spread and its
panel-to-contact sum from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contact import ContactLayout

__all__ = ["PanelGrid"]


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
    contact_panels:
        List (per contact) of flat panel indices covered by that contact.
    panel_to_contact:
        Flat array of length ``nx*ny`` mapping each panel to its contact index
        or -1 for non-contact panels.
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
        self._assign_panels()

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

    # ----------------------------------------------------------------- layout
    def _assign_panels(self) -> None:
        n_panels = self.nx * self.ny
        self.panel_to_contact = np.full(n_panels, -1, dtype=int)
        self.contact_panels: list[np.ndarray] = []
        for idx, c in enumerate(self.layout.contacts):
            # panels whose centres are inside the contact rectangle
            i1 = int(np.searchsorted(self.xc, c.x, side="left"))
            i2 = int(np.searchsorted(self.xc, c.x2, side="right"))
            j1 = int(np.searchsorted(self.yc, c.y, side="left"))
            j2 = int(np.searchsorted(self.yc, c.y2, side="right"))
            if i2 <= i1 or j2 <= j1:
                # contact smaller than a panel: snap to the nearest panel centre
                cx, cy = c.centroid
                i1 = min(max(int(cx / self.hx), 0), self.nx - 1)
                j1 = min(max(int(cy / self.hy), 0), self.ny - 1)
                i2, j2 = i1 + 1, j1 + 1
            # row-major flat indices of the covered block, already ascending
            flat = (np.arange(i1, i2)[:, None] * self.ny + np.arange(j1, j2)).ravel()
            # A panel centre can only belong to one contact for non-overlapping
            # layouts; keep the first owner if layouts touch.
            flat = flat[self.panel_to_contact[flat] == -1]
            self.panel_to_contact[flat] = idx
            self.contact_panels.append(flat)
        self.all_contact_panels = np.flatnonzero(self.panel_to_contact >= 0)
        if any(p.size == 0 for p in self.contact_panels):
            raise ValueError(
                "a contact received no panels; increase the panel resolution"
            )

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
