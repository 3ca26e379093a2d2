"""Rectangular substrate contacts and contact layouts.

The substrate model of the paper (Chapter 1) places perfectly conducting
rectangular contacts on the top surface of a layered resistive block.  A
:class:`Contact` is an axis-aligned rectangle on the top surface, and a
:class:`ContactLayout` is an ordered collection of contacts together with the
lateral substrate dimensions.  The ordering defines the row/column indexing of
the conductance matrix ``G``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Contact", "ContactLayout"]


@dataclass(frozen=True)
class Contact:
    """An axis-aligned rectangular contact on the substrate top surface.

    Parameters
    ----------
    x, y:
        Coordinates of the lower-left corner.
    width, height:
        Side lengths along x and y.  Must be positive.
    name:
        Optional label used in examples and circuit netlists.
    """

    x: float
    y: float
    width: float
    height: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"contact dimensions must be positive, got {self.width} x {self.height}"
            )

    @property
    def x2(self) -> float:
        """Right edge coordinate."""
        return self.x + self.width

    @property
    def y2(self) -> float:
        """Top edge coordinate."""
        return self.y + self.height

    @property
    def area(self) -> float:
        """Contact area."""
        return self.width * self.height

    @property
    def centroid(self) -> tuple[float, float]:
        """Geometric centre of the contact."""
        return (self.x + 0.5 * self.width, self.y + 0.5 * self.height)

    def overlaps(self, other: "Contact") -> bool:
        """Return True if this contact overlaps ``other`` with positive area."""
        return (
            self.x < other.x2
            and other.x < self.x2
            and self.y < other.y2
            and other.y < self.y2
        )

    def split(self, max_size: float) -> list["Contact"]:
        """Split the contact into pieces no larger than ``max_size`` per side.

        The paper requires contacts not to cross finest-level square
        boundaries; large contacts are split into many smaller ones
        (Section 3.2).  The split is a regular tiling, so the union of the
        pieces is exactly the original rectangle.
        """
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        nx = max(1, int(np.ceil(self.width / max_size - 1e-12)))
        ny = max(1, int(np.ceil(self.height / max_size - 1e-12)))
        if nx == 1 and ny == 1:
            return [self]
        w = self.width / nx
        h = self.height / ny
        pieces = []
        for i in range(nx):
            for j in range(ny):
                suffix = f"_{i}_{j}" if self.name else ""
                pieces.append(
                    Contact(self.x + i * w, self.y + j * h, w, h, self.name + suffix)
                )
        return pieces

    def split_at_gridlines(self, pitch: float, name_suffix: bool = True) -> list["Contact"]:
        """Split the contact along the global gridlines ``x = k * pitch``, ``y = k * pitch``.

        Used to make every piece fit inside one square of a regular grid of
        side ``pitch`` (the finest-level squares of the hierarchy).  Pieces
        are genuine sub-rectangles, so the union equals the original contact.
        """
        if pitch <= 0:
            raise ValueError("pitch must be positive")
        eps = 1e-12 * pitch

        def cuts(lo: float, hi: float) -> list[float]:
            first = int(np.floor(lo / pitch)) + 1
            last = int(np.ceil(hi / pitch)) - 1
            points = [lo]
            points.extend(
                k * pitch for k in range(first, last + 1) if lo + eps < k * pitch < hi - eps
            )
            points.append(hi)
            return points

        xs = cuts(self.x, self.x2)
        ys = cuts(self.y, self.y2)
        if len(xs) == 2 and len(ys) == 2:
            return [self]
        pieces = []
        for i in range(len(xs) - 1):
            for j in range(len(ys) - 1):
                suffix = f"_{i}_{j}" if (name_suffix and self.name) else ""
                pieces.append(
                    Contact(
                        xs[i], ys[j], xs[i + 1] - xs[i], ys[j + 1] - ys[j], self.name + suffix
                    )
                )
        return pieces

    def moment(self, alpha: int, beta: int, center: tuple[float, float]) -> float:
        """Exact polynomial moment of the contact indicator function.

        Computes ``integral over the contact of (x - cx)^alpha (y - cy)^beta``
        in closed form (Section 3.2.1 of the paper defines moments of voltage
        functions; for a characteristic function the integral factorises).
        """
        cx, cy = center
        a1, a2 = self.x - cx, self.x2 - cx
        b1, b2 = self.y - cy, self.y2 - cy
        ix = (a2 ** (alpha + 1) - a1 ** (alpha + 1)) / (alpha + 1)
        iy = (b2 ** (beta + 1) - b1 ** (beta + 1)) / (beta + 1)
        return ix * iy


class ContactLayout:
    """Ordered collection of contacts on a rectangular substrate surface.

    Parameters
    ----------
    contacts:
        The contacts, in conductance-matrix index order.
    size_x, size_y:
        Lateral substrate dimensions ``a`` and ``b`` (the top surface is
        ``[0, a] x [0, b]``).
    """

    def __init__(
        self, contacts: Iterable[Contact], size_x: float, size_y: float
    ) -> None:
        self._contacts: tuple[Contact, ...] = tuple(contacts)
        if size_x <= 0 or size_y <= 0:
            raise ValueError("substrate dimensions must be positive")
        self.size_x = float(size_x)
        self.size_y = float(size_y)
        for c in self._contacts:
            if c.x < -1e-9 or c.y < -1e-9 or c.x2 > size_x + 1e-9 or c.y2 > size_y + 1e-9:
                raise ValueError(f"contact {c} extends outside the substrate surface")

    @property
    def contacts(self) -> Sequence[Contact]:
        """The contacts in index order (one stored tuple, not a copy per access)."""
        return self._contacts

    @property
    def fingerprint(self) -> tuple:
        """Hashable identity of the layout geometry.

        Two layouts with equal fingerprints induce identical solver
        discretisations (panel grids, FD contact footprints), so the
        fingerprint keys the process-wide
        :mod:`~repro.substrate.factor_cache`.  Contact names are excluded —
        they do not affect the physics.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            cached = (
                self.size_x,
                self.size_y,
                tuple((c.x, c.y, c.width, c.height) for c in self._contacts),
            )
            self._fingerprint = cached
        return cached

    @property
    def n_contacts(self) -> int:
        """Number of contacts ``n`` (the dimension of ``G``)."""
        return len(self._contacts)

    def __len__(self) -> int:
        return len(self._contacts)

    def __iter__(self) -> Iterator[Contact]:
        return iter(self._contacts)

    def __getitem__(self, index: int) -> Contact:
        return self._contacts[index]

    @property
    def boxes(self) -> np.ndarray:
        """(n, 4) array of contact ``(x, y, width, height)``."""
        boxes = [(c.x, c.y, c.width, c.height) for c in self._contacts]
        return np.array(boxes, dtype=float).reshape(-1, 4)

    @property
    def centroids(self) -> np.ndarray:
        """(n, 2) array of contact centroids."""
        return np.array([c.centroid for c in self._contacts], dtype=float)

    @property
    def areas(self) -> np.ndarray:
        """(n,) array of contact areas."""
        return np.array([c.area for c in self._contacts], dtype=float)

    @property
    def total_contact_area(self) -> float:
        """Sum of all contact areas."""
        return float(self.areas.sum())

    @property
    def coverage(self) -> float:
        """Fraction of the top surface covered by contacts."""
        return self.total_contact_area / (self.size_x * self.size_y)

    def split_for_level(self, max_level: int) -> "ContactLayout":
        """Return a layout where every contact fits in a finest-level square.

        The finest-level squares at ``max_level`` have side
        ``size / 2**max_level``; contacts larger than that are split
        (Section 3.2: "Splitting large contacts into many smaller ones using
        the finest level square boundaries may be necessary").
        """
        side = min(self.size_x, self.size_y) / (2 ** max_level)
        pieces: list[Contact] = []
        for c in self._contacts:
            pieces.extend(c.split_at_gridlines(side))
        return ContactLayout(pieces, self.size_x, self.size_y)

    def subset(self, indices: Sequence[int]) -> "ContactLayout":
        """Return a layout containing only the contacts at ``indices``."""
        return ContactLayout(
            [self._contacts[i] for i in indices], self.size_x, self.size_y
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ContactLayout(n={self.n_contacts}, "
            f"size={self.size_x}x{self.size_y}, coverage={self.coverage:.3f})"
        )
