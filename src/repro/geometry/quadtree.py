"""Multilevel square hierarchy over the substrate surface.

Both sparsification algorithms (Chapters 3 and 4) organise the contacts into
a hierarchy of squares: the top surface is recursively subdivided into
``2^l x 2^l`` squares at level ``l`` (Section 3.3).  This module provides the
hierarchy, the assignment of contacts to finest-level squares, and the
geometric neighbourhood relations the algorithms rely on:

* *local* squares ``L_s`` of a square ``s``: ``s`` itself and its (up to 8)
  same-level neighbours,
* *interactive* squares ``I_s``: same-level squares that are not local to
  ``s`` but whose parents are local to ``s``'s parent (the classic fast
  multipole interaction list, Section 4.3 / Figure 4-4),
* the *well-separated* predicate between squares on possibly different levels
  used by the combine-solves assumption (Section 3.5): with ``level(s) <=
  level(s')``, the pair is well separated when the ancestor of ``s'`` at
  ``level(s)`` is not local to ``s``; the squares at ``s``'s level or finer
  that are *not* well separated from ``s`` are its *target* squares.

The squares never change once the hierarchy is built, so each square's
neighbourhoods are computed on first use and kept as immutable tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .contact import ContactLayout

__all__ = ["Square", "SquareHierarchy"]

SquareKey = tuple[int, int, int]


@dataclass
class Square:
    """One square of the hierarchy.

    Attributes
    ----------
    level, i, j:
        The square occupies cell ``(i, j)`` of the ``2^level x 2^level``
        subdivision (``0 <= i, j < 2^level``), ``i`` indexing x and ``j``
        indexing y.
    contact_indices:
        Indices (into the layout) of contacts whose centroid falls inside the
        square.  Sorted ascending.
    """

    level: int
    i: int
    j: int
    contact_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def key(self) -> SquareKey:
        return (self.level, self.i, self.j)

    @property
    def n_contacts(self) -> int:
        return int(self.contact_indices.size)

    def parent_key(self) -> SquareKey:
        if self.level == 0:
            raise ValueError("the root square has no parent")
        return (self.level - 1, self.i // 2, self.j // 2)

    def child_keys(self) -> list[SquareKey]:
        lev = self.level + 1
        return [
            (lev, 2 * self.i + di, 2 * self.j + dj)
            for dj in (0, 1)
            for di in (0, 1)
        ]

    def center(self, size_x: float, size_y: float) -> tuple[float, float]:
        """Geometric centre of the square on a ``size_x x size_y`` surface."""
        nx = 2 ** self.level
        return (
            (self.i + 0.5) * size_x / nx,
            (self.j + 0.5) * size_y / nx,
        )

    def bounds(self, size_x: float, size_y: float) -> tuple[float, float, float, float]:
        """(x1, y1, x2, y2) bounds of the square."""
        nx = 2 ** self.level
        hx, hy = size_x / nx, size_y / nx
        return (self.i * hx, self.j * hy, (self.i + 1) * hx, (self.j + 1) * hy)


class SquareHierarchy:
    """The multilevel square subdivision of the substrate surface.

    Only squares that contain at least one contact (at any level) are stored;
    empty squares are skipped in all iterations, matching the adaptive
    behaviour needed for irregular layouts.

    Parameters
    ----------
    layout:
        The contact layout.  Contacts are assigned to finest-level squares by
        centroid; a contact that does not fit entirely inside its square
        raises (use :meth:`ContactLayout.split_for_level` first).
    max_level:
        Finest subdivision level ``L``.  If None, it is chosen so that the
        average finest-level square holds roughly ``target_per_square``
        contacts.
    target_per_square:
        Target average number of contacts per finest-level square when
        ``max_level`` is None.
    strict_containment:
        When True (default), raise if a contact crosses a finest-level square
        boundary.  When False, contacts are assigned by centroid regardless.
    """

    def __init__(
        self,
        layout: ContactLayout,
        max_level: int | None = None,
        target_per_square: int = 4,
        strict_containment: bool = True,
    ) -> None:
        self.layout = layout
        n = layout.n_contacts
        if n == 0:
            raise ValueError("layout has no contacts")
        if max_level is None:
            # choose L so that 4^L * target >= n
            max_level = max(2, int(np.ceil(np.log(max(n / target_per_square, 1.0)) / np.log(4.0))))
        if max_level < 2:
            raise ValueError(
                "max_level must be at least 2 (coarser levels have empty interaction lists)"
            )
        self.max_level = int(max_level)
        self.size_x = layout.size_x
        self.size_y = layout.size_y

        self._squares: dict[SquareKey, Square] = {}
        self._assign_contacts(strict_containment)
        self._build_coarser_levels()
        self._levels: dict[int, list[Square]] = {}
        #: memoised neighbourhoods, keyed by (relation, square key)
        self._neighbourhoods: dict[tuple[str, SquareKey], tuple[Square, ...]] = {}
        for sq in self._squares.values():
            self._levels.setdefault(sq.level, []).append(sq)
        for lev in self._levels:
            self._levels[lev].sort(key=lambda s: (s.i, s.j))

    # ------------------------------------------------------------------ build
    def _assign_contacts(self, strict: bool) -> None:
        n_fine = 2 ** self.max_level
        hx = self.size_x / n_fine
        hy = self.size_y / n_fine
        buckets: dict[SquareKey, list[int]] = {}
        for idx, c in enumerate(self.layout.contacts):
            cx, cy = c.centroid
            i = min(int(cx / hx), n_fine - 1)
            j = min(int(cy / hy), n_fine - 1)
            if strict:
                x1, y1, x2, y2 = i * hx, j * hy, (i + 1) * hx, (j + 1) * hy
                tol = 1e-9 * max(self.size_x, self.size_y)
                if c.x < x1 - tol or c.x2 > x2 + tol or c.y < y1 - tol or c.y2 > y2 + tol:
                    raise ValueError(
                        f"contact {idx} ({c}) crosses a finest-level square boundary "
                        f"at level {self.max_level}; split the layout first "
                        "(ContactLayout.split_for_level)"
                    )
            buckets.setdefault((self.max_level, i, j), []).append(idx)
        for key, idxs in buckets.items():
            self._squares[key] = Square(
                key[0], key[1], key[2], np.array(sorted(idxs), dtype=int)
            )

    def _build_coarser_levels(self) -> None:
        for lev in range(self.max_level - 1, -1, -1):
            buckets: dict[SquareKey, list[np.ndarray]] = {}
            for sq in list(self._squares.values()):
                if sq.level != lev + 1:
                    continue
                pkey = (lev, sq.i // 2, sq.j // 2)
                buckets.setdefault(pkey, []).append(sq.contact_indices)
            for pkey, pieces in buckets.items():
                idxs = np.sort(np.concatenate(pieces))
                self._squares[pkey] = Square(pkey[0], pkey[1], pkey[2], idxs)

    # ------------------------------------------------------------ basic access
    @property
    def squares(self) -> dict[SquareKey, Square]:
        """All non-empty squares keyed by (level, i, j)."""
        return self._squares

    def levels(self) -> range:
        """Range of levels, coarsest (0) to finest (max_level)."""
        return range(0, self.max_level + 1)

    def squares_at_level(self, level: int) -> Sequence[Square]:
        """Non-empty squares at ``level``, ordered by (i, j)."""
        return tuple(self._levels.get(level, ()))

    def get(self, key: SquareKey) -> Square | None:
        """Square at ``key`` or None if it contains no contacts."""
        return self._squares.get(key)

    def __contains__(self, key: SquareKey) -> bool:
        return key in self._squares

    def parent(self, square: Square) -> Square | None:
        """Parent square (always non-empty if ``square`` is non-empty)."""
        if square.level == 0:
            return None
        return self._squares.get(square.parent_key())

    def children(self, square: Square) -> list[Square]:
        """Non-empty children of ``square``."""
        return [
            self._squares[k] for k in square.child_keys() if k in self._squares
        ]

    def ancestor_key(self, square: Square, level: int) -> SquareKey:
        """Key of the ancestor of ``square`` at a coarser ``level``."""
        if level > square.level:
            raise ValueError("ancestor level must not be finer than the square's level")
        shift = square.level - level
        return (level, square.i >> shift, square.j >> shift)

    # --------------------------------------------------------- neighbourhoods
    def _same_level_keys(
        self, square: Square, di_range: Iterable[int], dj_range: Iterable[int]
    ) -> Iterator[SquareKey]:
        n = 2 ** square.level
        for dj in dj_range:
            for di in di_range:
                i, j = square.i + di, square.j + dj
                if 0 <= i < n and 0 <= j < n:
                    yield (square.level, i, j)

    def neighbors(self, square: Square) -> list[Square]:
        """Non-empty same-level neighbours (excluding the square itself)."""
        out = []
        for key in self._same_level_keys(square, (-1, 0, 1), (-1, 0, 1)):
            if key == square.key:
                continue
            sq = self._squares.get(key)
            if sq is not None:
                out.append(sq)
        return out

    def _memo(
        self, relation: str, square: Square, compute: Callable[[Square], Iterable[Square]]
    ) -> tuple[Square, ...]:
        """``compute(square)`` on first use, then the kept (immutable) answer."""
        key = (relation, square.key)
        found = self._neighbourhoods.get(key)
        if found is None:
            found = self._neighbourhoods[key] = tuple(compute(square))
        return found

    def local_squares(self, square: Square) -> tuple[Square, ...]:
        """``L_s``: the square itself plus its non-empty neighbours."""
        return self._memo("local", square, lambda s: [s] + self.neighbors(s))

    def interactive_squares(self, square: Square) -> tuple[Square, ...]:
        """``I_s``: the interaction list of ``square`` (Figure 4-4).

        Same-level, non-empty squares that are *not* local to ``square`` but
        whose parents are the parent of ``square`` or one of its neighbours.
        Levels 0 and 1 have empty interaction lists.
        """
        return self._memo("interactive", square, self._interaction_list)

    def _interaction_list(self, square: Square) -> list[Square]:
        if square.level < 2:
            return []
        local_keys = set(self._same_level_keys(square, (-1, 0, 1), (-1, 0, 1)))
        parent_key = square.parent_key()
        plevel, pi, pj = parent_key
        np_side = 2 ** plevel
        out = []
        for dj in (-1, 0, 1):
            for di in (-1, 0, 1):
                qi, qj = pi + di, pj + dj
                if not (0 <= qi < np_side and 0 <= qj < np_side):
                    continue
                for ci in (2 * qi, 2 * qi + 1):
                    for cj in (2 * qj, 2 * qj + 1):
                        key = (square.level, ci, cj)
                        if key in local_keys:
                            continue
                        sq = self._squares.get(key)
                        if sq is not None:
                            out.append(sq)
        return out

    def interactive_and_local(self, square: Square) -> tuple[Square, ...]:
        """``P_s = I_s union L_s`` — the children of the local squares of the parent."""
        return self._memo(
            "p", square, lambda s: self.local_squares(s) + self.interactive_squares(s)
        )

    def target_squares(self, source: Square) -> tuple[Square, ...]:
        """Squares at the source's level or finer whose ancestor is local to it.

        These are the squares whose interactions with ``source`` both
        sparsifiers keep: ``L_source``, then their children, grandchildren and
        so on down to the finest level, in that (breadth-first) order.
        """
        return self._memo("target", source, self._descendants_of_local)

    def _descendants_of_local(self, source: Square) -> list[Square]:
        out: list[Square] = []
        frontier = list(self.local_squares(source))
        while frontier:
            out.extend(frontier)
            frontier = [child for sq in frontier for child in self.children(sq)]
        return out

    def are_local(self, a: Square, b: Square) -> bool:
        """Same-level locality test (same square or adjacent)."""
        if a.level != b.level:
            raise ValueError("are_local requires squares on the same level")
        return abs(a.i - b.i) <= 1 and abs(a.j - b.j) <= 1

    def well_separated(self, a: Square, b: Square) -> bool:
        """Cross-level well-separated predicate of Section 3.5.

        With ``level(a) <= level(b)`` (swap otherwise), the squares are well
        separated when the ancestor of ``b`` at ``level(a)`` is neither ``a``
        nor a neighbour of ``a``.
        """
        if a.level > b.level:
            a, b = b, a
        anc_level, ai, aj = self.ancestor_key(b, a.level)
        return not (abs(a.i - ai) <= 1 and abs(a.j - aj) <= 1)

    # -------------------------------------------------------------- utilities
    def contacts_in(self, squares: Iterable[Square]) -> np.ndarray:
        """Sorted union of contact indices over ``squares``."""
        pieces = [sq.contact_indices for sq in squares]
        if not pieces:
            return np.empty(0, dtype=int)
        return np.unique(np.concatenate(pieces))

    def finest_square_of_contact(self, contact_index: int) -> Square:
        """The finest-level square containing ``contact_index``."""
        c = self.layout.contacts[contact_index]
        n_fine = 2 ** self.max_level
        hx = self.size_x / n_fine
        hy = self.size_y / n_fine
        cx, cy = c.centroid
        i = min(int(cx / hx), n_fine - 1)
        j = min(int(cy / hy), n_fine - 1)
        return self._squares[(self.max_level, i, j)]

    def statistics(self) -> dict[str, float]:
        """Summary statistics used in reports and sanity checks."""
        finest = self.squares_at_level(self.max_level)
        per_square = np.array([s.n_contacts for s in finest])
        return {
            "n_contacts": self.layout.n_contacts,
            "max_level": self.max_level,
            "n_nonempty_finest_squares": len(finest),
            "max_contacts_per_finest_square": int(per_square.max()),
            "mean_contacts_per_finest_square": float(per_square.mean()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SquareHierarchy(n={self.layout.n_contacts}, L={self.max_level}, "
            f"finest squares={len(self.squares_at_level(self.max_level))})"
        )
