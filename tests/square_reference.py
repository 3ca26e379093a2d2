"""Per-square reference of the square hierarchy, the oracle of its index arrays.

The straightforward form of ``repro.geometry.quadtree``: squares are
``(level, i, j)`` keys holding their sorted contact indices, and each
relation is written out square by square with the neighbour loops of
Sections 3.3-3.5.  ``SquareHierarchy``'s per-level arrays must list the same
squares in the same orders.
"""

from __future__ import annotations

import numpy as np

Key = tuple[int, int, int]


def quadrant_order_key(key: Key) -> int:
    """Quadrant-hierarchical (Morton-style, top-left first) order of a square."""
    level, i, j = key
    jj = (2**level - 1) - j  # top quadrants first
    code = 0
    for bit in range(level - 1, -1, -1):
        code = (code << 2) | ((((jj >> bit) & 1) << 1) | ((i >> bit) & 1))
    return code


class ReferenceHierarchy:
    """The hierarchy as a dict of squares, relations computed square by square."""

    def __init__(self, layout, max_level: int, strict_containment: bool = True) -> None:
        self.layout = layout
        self.max_level = max_level
        n_fine = 2**max_level
        hx, hy = layout.size_x / n_fine, layout.size_y / n_fine
        buckets: dict[Key, list[int]] = {}
        for idx, c in enumerate(layout.contacts):
            cx, cy = c.centroid
            i = min(int(cx / hx), n_fine - 1)
            j = min(int(cy / hy), n_fine - 1)
            if strict_containment:
                tol = 1e-9 * max(layout.size_x, layout.size_y)
                x1, y1, x2, y2 = i * hx, j * hy, (i + 1) * hx, (j + 1) * hy
                if c.x < x1 - tol or c.x2 > x2 + tol or c.y < y1 - tol or c.y2 > y2 + tol:
                    raise ValueError(f"contact {idx} ({c}) crosses a finest-level square boundary")
            for level in range(max_level, -1, -1):
                shift = max_level - level
                buckets.setdefault((level, i >> shift, j >> shift), []).append(idx)
        self.squares = {key: np.array(sorted(idxs), dtype=int) for key, idxs in buckets.items()}

    def squares_at_level(self, level: int) -> list[Key]:
        return sorted((k for k in self.squares if k[0] == level), key=lambda k: (k[1], k[2]))

    def centre(self, key: Key) -> tuple[float, float]:
        level, i, j = key
        nx = 2**level
        return ((i + 0.5) * self.layout.size_x / nx, (j + 0.5) * self.layout.size_y / nx)

    def parent(self, key: Key) -> Key:
        level, i, j = key
        return (level - 1, i // 2, j // 2)

    def children(self, key: Key) -> list[Key]:
        level, i, j = key
        keys = [(level + 1, 2 * i + di, 2 * j + dj) for dj in (0, 1) for di in (0, 1)]
        return [k for k in keys if k in self.squares]

    def _neighbour_keys(self, key: Key) -> list[Key]:
        level, i, j = key
        n = 2**level
        return [
            (level, i + di, j + dj)
            for dj in (-1, 0, 1)
            for di in (-1, 0, 1)
            if 0 <= i + di < n and 0 <= j + dj < n
        ]

    def local_squares(self, key: Key) -> list[Key]:
        """``L_s``: the square, then its non-empty neighbours."""
        return [key] + [k for k in self._neighbour_keys(key) if k != key and k in self.squares]

    def interactive_squares(self, key: Key) -> list[Key]:
        """``I_s``: children of the parent's neighbourhood that are not local."""
        level = key[0]
        if level < 2:
            return []
        local = set(self._neighbour_keys(key))
        out = []
        for _, qi, qj in self._neighbour_keys(self.parent(key)):
            for ci in (2 * qi, 2 * qi + 1):
                for cj in (2 * qj, 2 * qj + 1):
                    k = (level, ci, cj)
                    if k not in local and k in self.squares:
                        out.append(k)
        return out

    def interactive_and_local(self, key: Key) -> list[Key]:
        return self.local_squares(key) + self.interactive_squares(key)

    def target_squares(self, key: Key) -> list[Key]:
        """``L_s``, then their children, grandchildren and so on (breadth first)."""
        out: list[Key] = []
        frontier = self.local_squares(key)
        while frontier:
            out.extend(frontier)
            frontier = [child for k in frontier for child in self.children(k)]
        return out
