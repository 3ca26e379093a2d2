"""Multilevel square hierarchy over the substrate surface.

Both sparsification algorithms (Chapters 3 and 4) organise the contacts into
a hierarchy of squares: the top surface is recursively subdivided into
``2^l x 2^l`` squares at level ``l`` (Section 3.3), a contact belongs to the
finest-level square under its centroid and to that square's ancestors, and
only squares that hold a contact exist.  The hierarchy is one
:class:`LevelIndex` per level, built by array arithmetic over all squares
and contacts at once: it numbers the level's squares, lists their contacts,
links them to their parents and children, fixes the order in which ``Q``
lays out their columns, and lists the geometric relations both algorithms
rely on:

* *local* squares ``L_s`` of a square ``s``: ``s`` itself and its (up to 8)
  same-level neighbours,
* *interactive* squares ``I_s``: same-level squares that are not local to
  ``s`` but whose parents are local to ``s``'s parent (the classic fast
  multipole interaction list, Section 4.3 / Figure 4-4),
* ``P_s``: ``L_s`` and ``I_s`` together, the children of the parent's local
  squares.

:meth:`SquareHierarchy.target_pairs` gives the cross-level relation of the
combine-solves assumption (Section 3.5): the squares at a square's level or
finer whose ancestor at its level is local to it.

The module also holds the index arithmetic over pointer arrays
(:func:`offsets`, :func:`concat_ranges`) that the sparsifiers share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contact import ContactLayout

__all__ = ["LevelIndex", "SquareHierarchy", "concat_ranges", "offsets"]

#: ``L_s`` offsets: the square itself, then its neighbours with ``dj`` outer
_LOCAL = np.array([(0, 0)] + [(di, dj) for dj in (-1, 0, 1) for di in (-1, 0, 1) if di or dj])
#: ``I_s`` candidates: the parent's neighbour offsets (``dj`` outer, the
#: parent included), each followed by its four children with ``i`` outer
_INTERACTIVE = np.array(
    [
        (2 * di + ci, 2 * dj + cj)
        for dj in (-1, 0, 1)
        for di in (-1, 0, 1)
        for ci in (0, 1)
        for cj in (0, 1)
    ]
)
#: child offsets of ``(2i, 2j)`` in child order: ``i`` inner
_CHILDREN = np.array([(0, 0), (1, 0), (0, 1), (1, 1)])


def offsets(counts) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: where each of consecutive runs of ``counts`` starts."""
    out = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=out[1:])
    return out


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    counts = np.asarray(counts, dtype=np.intp)
    ends = np.cumsum(counts)
    shift = np.repeat(np.asarray(starts, dtype=np.intp) - (ends - counts), counts)
    return np.arange(int(ends[-1]) if ends.size else 0, dtype=np.intp) + shift


def _listed(found: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ptr, squares)`` of an ``(n, k)`` table of square numbers, -1 where none."""
    keep = found >= 0
    return offsets(keep.sum(axis=1)), found[keep]


def _find(ij: np.ndarray, level: int, cells: np.ndarray) -> np.ndarray:
    """The number of the square at each ``(i, j)`` of ``cells``, -1 where none.

    ``ij`` holds the cells of a level's squares in ``(i, j)`` order.
    """
    side = 2**level
    codes = ij[:, 0] * side + ij[:, 1]  # ascending
    inside = np.all((cells >= 0) & (cells < side), axis=-1)
    query = np.where(inside, cells[..., 0] * side + cells[..., 1], -1)
    at = np.minimum(np.searchsorted(codes, query), codes.size - 1)
    return np.where(inside & (codes[at] == query), at, -1)


@dataclass(frozen=True)
class LevelIndex:
    """Index arrays of one hierarchy level, fixed by the geometry.

    The level's squares are numbered in ``(i, j)`` order, and ``ij[s]`` is
    square ``s``'s cell of the ``2^level x 2^level`` subdivision (``i``
    along x).  Square ``s`` holds contacts
    ``contacts[contact_ptr[s]:contact_ptr[s + 1]]`` in ascending order, and
    ``owner`` maps each contact to its square.  ``parent[s]`` numbers its
    parent on the level above (-1 at the root), and ``children = (ptr,
    squares)`` lists its children on the level below in the order
    ``(2i, 2j), (2i + 1, 2j), (2i, 2j + 1), (2i + 1, 2j + 1)``.
    ``quadrant`` lists the squares in the order ``Q`` lays out their
    columns: quadrant-hierarchical, top-left first.

    ``members[name] = (ptr, squares)`` lists one relation of every square:

    * ``"local"``: ``L_s``, the square itself, then its neighbours at offsets
      ``(di, dj)`` with ``dj`` outer;
    * ``"interactive"``: ``I_s``, the parent's neighbour offsets in the same
      order (the parent included), and for each the children with ``i``
      outer, minus ``L_s``;
    * ``"p"``: ``P_s``, ``L_s`` then ``I_s``.

    These orders are kept as they are because they fix the order in which
    the row-basis sweep sums responses: another order changes ``Q`` and
    ``Gw`` by rounding.
    """

    level: int
    ij: np.ndarray
    contact_ptr: np.ndarray
    contacts: np.ndarray
    owner: np.ndarray
    parent: np.ndarray
    children: tuple[np.ndarray, np.ndarray]
    quadrant: np.ndarray
    members: dict[str, tuple[np.ndarray, np.ndarray]]

    @property
    def n_squares(self) -> int:
        return self.ij.shape[0]

    def contacts_of(self, squares: np.ndarray) -> np.ndarray:
        """The contacts of ``squares``, square after square."""
        sizes = np.diff(self.contact_ptr)
        return self.contacts[concat_ranges(self.contact_ptr[squares], sizes[squares])]

    def related_squares(self, relation: str, squares: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(related, ptr)``: ``relation`` of each of ``squares``, one after another."""
        ptr, listed = self.members[relation]
        counts = np.diff(ptr)[squares]
        return listed[concat_ranges(ptr[squares], counts)], offsets(counts)

    def rows(self, relation: str, col_square: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, indptr)``: for each column, the contacts of ``relation`` of its square.

        Column ``c`` belongs to square ``col_square[c]``; its rows are
        ``rows[indptr[c]:indptr[c + 1]]`` (CSC layout).
        """
        related, ptr = self.related_squares(relation, col_square)
        sizes = np.diff(self.contact_ptr)[related]
        return self.contacts_of(related), np.concatenate([[0], np.cumsum(sizes)])[ptr]

    def is_local(self, rows: np.ndarray, col_square: np.ndarray) -> np.ndarray:
        """Whether the square holding contact ``rows[e]`` is local to ``col_square[e]``."""
        gap = np.abs(self.ij[self.owner[rows]] - self.ij[col_square])
        return gap.max(axis=1) <= 1


def _level_index(level: int, ij: list[np.ndarray], owner: np.ndarray) -> LevelIndex:
    """Level ``level`` of the hierarchy whose levels hold the squares ``ij``;
    ``owner`` maps each contact to its square on this level."""
    here = ij[level]
    parent = _find(ij[level - 1], level - 1, here // 2) if level else np.full(1, -1)
    below = (
        _find(ij[level + 1], level + 1, 2 * here[:, None] + _CHILDREN)
        if level + 1 < len(ij)
        else np.full((here.shape[0], 0), -1)
    )
    local = _find(here, level, here[:, None] + _LOCAL)
    candidates = 2 * (here[:, None] // 2) + _INTERACTIVE
    far = np.abs(candidates - here[:, None]).max(axis=2) > 1
    interactive = np.where(far, _find(here, level, candidates), -1)
    return LevelIndex(
        level,
        here,
        offsets(np.bincount(owner, minlength=here.shape[0])),
        np.argsort(owner, kind="stable"),
        owner,
        parent,
        _listed(below),
        _quadrant_order(here, level),
        {
            "local": _listed(local),
            "interactive": _listed(interactive),
            "p": _listed(np.concatenate([local, interactive], axis=1)),
        },
    )


def _finest_cells(layout: ContactLayout, max_level: int, strict: bool) -> np.ndarray:
    """``(n, 2)``: the finest-level cell under each contact's centroid."""
    x, y, w, h = layout.boxes.T
    side = 2**max_level
    hx, hy = layout.size_x / side, layout.size_y / side
    i = np.minimum(((x + 0.5 * w) / hx).astype(np.intp), side - 1)
    j = np.minimum(((y + 0.5 * h) / hy).astype(np.intp), side - 1)
    if strict:
        tol = 1e-9 * max(layout.size_x, layout.size_y)
        crossing = np.flatnonzero(
            (x < i * hx - tol)
            | (x + w > (i + 1) * hx + tol)
            | (y < j * hy - tol)
            | (y + h > (j + 1) * hy + tol)
        )
        if crossing.size:
            k = int(crossing[0])
            raise ValueError(
                f"contact {k} ({layout[k]}) crosses a finest-level square boundary "
                f"at level {max_level}; split the layout first "
                "(ContactLayout.split_for_level)"
            )
    return np.stack([i, j], axis=1)


def _quadrant_order(ij: np.ndarray, level: int) -> np.ndarray:
    """Squares in quadrant-hierarchical order: at every scale the top (high
    ``j``) quadrants first, left before right."""
    code = np.zeros(ij.shape[0], dtype=np.intp)
    for bit in range(level - 1, -1, -1):
        top = 1 - ((ij[:, 1] >> bit) & 1)
        code = (code << 2) | (top << 1) | ((ij[:, 0] >> bit) & 1)
    return np.argsort(code, kind="stable")


class SquareHierarchy:
    """The multilevel square subdivision of the substrate surface.

    ``levels[l]`` is the :class:`LevelIndex` of level ``l``, from the root
    (0) to the finest level (``max_level``).

    Parameters
    ----------
    layout:
        The contact layout.  Contacts are assigned to finest-level squares by
        centroid; a contact that does not fit entirely inside its square
        raises (use :meth:`ContactLayout.split_for_level` first).
    max_level:
        Finest subdivision level ``L`` (at least 2).
    strict_containment:
        When True (default), raise if a contact crosses a finest-level square
        boundary.  When False, contacts are assigned by centroid regardless.
    """

    def __init__(
        self, layout: ContactLayout, max_level: int, strict_containment: bool = True
    ) -> None:
        if layout.n_contacts == 0:
            raise ValueError("layout has no contacts")
        if max_level < 2:
            raise ValueError(
                "max_level must be at least 2 (coarser levels have empty interaction lists)"
            )
        self.layout = layout
        self.max_level = int(max_level)
        self.size_x = layout.size_x
        self.size_y = layout.size_y
        finest = _finest_cells(layout, self.max_level, strict_containment)
        ij, owners = [], []
        for level in range(self.max_level + 1):
            side = 2**level
            cell = finest >> (self.max_level - level)
            codes, owner = np.unique(cell[:, 0] * side + cell[:, 1], return_inverse=True)
            ij.append(np.stack([codes // side, codes % side], axis=1))
            owners.append(owner.ravel())
        self.levels = tuple(_level_index(level, ij, owners[level]) for level in range(len(ij)))

    def target_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(source, target)``: every square paired with each of its target squares.

        The targets of a source are the squares at its level or finer whose
        ancestor at its level is the source or a neighbour of it: the pairs
        that are not well separated (Section 3.5), whose interactions both
        sparsifiers keep.  Squares are numbered level by level, coarsest
        first: square ``s`` of level ``l`` is number ``s`` plus the number
        of squares on the levels above.
        """
        first = offsets([index.n_squares for index in self.levels])
        sources, targets = [], []
        for ls, source in enumerate(self.levels):
            for lt in range(ls, self.max_level + 1):
                ancestor = self.levels[lt].ij >> (lt - ls)
                found = _find(source.ij, ls, ancestor[:, None] + _LOCAL)
                t, k = np.nonzero(found >= 0)
                sources.append(first[ls] + found[t, k])
                targets.append(first[lt] + t)
        return np.concatenate(sources), np.concatenate(targets)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SquareHierarchy(n={self.layout.n_contacts}, L={self.max_level}, "
            f"finest squares={self.levels[-1].n_squares})"
        )
