"""3-D finite-difference grid for the grid-of-resistors substrate model.

Section 2.2 discretises Poisson's equation on a regular 3-D grid, which is
equivalent to a resistor network (Figure 2-1).  This module defines the grid
geometry: cell-centred nodes, per-plane conductivities, non-uniform vertical
spacing so thin layers can be resolved without refining the whole volume, and
the mapping from top-surface nodes to contacts (Dirichlet boundary nodes sit
just above the surface, the paper's first placement choice in Figure 2-4).
That mapping is the panel ownership rule of the eigenfunction solver
(:func:`~repro.geometry.panels.cell_owners`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...geometry.contact import ContactLayout
from ...geometry.panels import cell_owners
from ..profile import SubstrateProfile

__all__ = ["Grid3D"]


@dataclass
class Grid3D:
    """Cell-centred 3-D grid over the substrate volume.

    Node ``(i, j, k)`` sits at ``((i+1/2) hx, (j+1/2) hy, -depth_k)`` with
    ``k = 0`` the topmost plane.  The vertical spacing is chosen per layer so
    each substrate layer receives ``planes_per_layer`` planes (or a minimum of
    one), exactly resolving layer boundaries half-way between planes as the
    paper assumes.

    Parameters
    ----------
    layout:
        Contact layout (defines lateral size and contact footprints).
    profile:
        Layered substrate profile.
    nx, ny:
        Lateral node counts.
    planes_per_layer:
        Either an int applied to every layer or a sequence with one entry per
        layer.
    """

    layout: ContactLayout
    profile: SubstrateProfile
    nx: int
    ny: int
    planes_per_layer: int | tuple[int, ...] = 3

    def __post_init__(self) -> None:
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid must have at least 2 nodes per lateral dimension")
        self.hx = self.layout.size_x / self.nx
        self.hy = self.layout.size_y / self.ny

        if isinstance(self.planes_per_layer, int):
            per_layer = [self.planes_per_layer] * self.profile.n_layers
        else:
            per_layer = list(self.planes_per_layer)
            if len(per_layer) != self.profile.n_layers:
                raise ValueError("planes_per_layer must have one entry per layer")
        per_layer = [max(1, int(p)) for p in per_layer]

        hz: list[float] = []
        sigma: list[float] = []
        for layer, count in zip(self.profile.layers, per_layer, strict=True):
            dz = layer.thickness / count
            hz.extend([dz] * count)
            sigma.extend([layer.conductivity] * count)
        #: vertical cell heights, top plane first
        self.hz = np.array(hz)
        #: conductivity of each plane, top plane first
        self.sigma = np.array(sigma)
        self.nz = len(hz)
        #: depth of each plane's node below the top surface
        self.node_depth = np.cumsum(self.hz) - 0.5 * self.hz
        owner = cell_owners(self.layout, self.nx, self.ny)
        #: (nx, ny) array mapping top-surface cells to contact index or -1
        self.top_contact_owner = owner.reshape(self.nx, self.ny)

    # --------------------------------------------------------------- indexing
    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny * self.nz

    def node_index(
        self, i: np.ndarray | int, j: np.ndarray | int, k: np.ndarray | int
    ) -> np.ndarray | int:
        """Flat node index with ordering ``k`` (slowest), ``i``, ``j`` (fastest)."""
        return (np.asarray(k) * self.nx + np.asarray(i)) * self.ny + np.asarray(j)

    # ------------------------------------------------------------ conductances
    def lateral_conductances(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-plane x- and y-direction branch conductances ``(gx[k], gy[k])``."""
        gx = self.sigma * self.hy * self.hz / self.hx
        gy = self.sigma * self.hx * self.hz / self.hy
        return gx, gy

    def vertical_conductances(self) -> np.ndarray:
        """Branch conductances ``gz[k]`` between plane ``k`` and ``k+1``.

        A vertical branch spans half of each neighbouring cell; crossing a
        layer boundary yields the series combination of Figure 2-2.
        """
        area = self.hx * self.hy
        upper = 0.5 * self.hz[:-1] / (self.sigma[:-1] * area)
        lower = 0.5 * self.hz[1:] / (self.sigma[1:] * area)
        return 1.0 / (upper + lower)

    def top_dirichlet_conductance(self) -> float:
        """Conductance from a top node to a Dirichlet contact node on the surface."""
        area = self.hx * self.hy
        return 2.0 * self.sigma[0] * area / self.hz[0]

    def bottom_dirichlet_conductance(self) -> float:
        """Conductance from a bottom node to the grounded backplane."""
        area = self.hx * self.hy
        return 2.0 * self.sigma[-1] * area / self.hz[-1]

    def contact_area_fraction(self) -> float:
        """Fraction of top-surface cells owned by contacts (area-weighted BC)."""
        return float(np.count_nonzero(self.top_contact_owner >= 0)) / (
            self.nx * self.ny
        )
