"""Multilevel vanishing-moment (wavelet) basis construction (Section 3.4).

For every square of the hierarchy the contact-voltage space is split into a
small *non-vanishing* subspace ``V_s`` (at most ``d = (p+1)(p+2)/2`` vectors)
and a *vanishing-moment* subspace ``W_s`` whose voltage functions have all
polynomial moments of order ``<= p`` equal to zero over the square's contact
area.  Finest-level splits come from an SVD of the contact moment matrix;
coarser-level splits recombine the children's non-vanishing vectors using an
SVD of their (re-centred) moments.  The vanishing-moment vectors of every
square, together with the non-vanishing vectors of the root square, form the
orthogonal change-of-basis matrix ``Q``.

Squares, their contacts, centres and children come from the hierarchy's
per-level index arrays; the basis keeps one :class:`SquareBasis` per square
(``squares[level][s]``) and records where each square's vanishing-moment
vectors sit in ``Q`` as per-level arrays (``w_start``, ``n_w``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..geometry.quadtree import LevelIndex, SquareHierarchy, offsets
from .moments import contact_moment_matrix, moment_count, moment_shift_matrix
from .sparsified import block_columns, pruned_q

__all__ = ["SquareBasis", "WaveletBasis"]


@dataclass
class SquareBasis:
    """Per-square basis data.

    ``V`` spans the non-vanishing-moment subspace (pushed up to the parent),
    ``W`` spans the vanishing-moment subspace (contributed to ``Q``), both
    expressed on the square's own contacts (in its level's ``contacts``
    order), with orthonormal columns.  ``moments_V`` holds the moments of
    the ``V`` columns about the square centre, reused by the parent-level
    construction.
    """

    V: np.ndarray
    W: np.ndarray
    moments_V: np.ndarray


class WaveletBasis:
    """The multilevel wavelet basis and its change-of-basis matrix ``Q``.

    ``squares[l][s]`` is the basis of square ``s`` of hierarchy level ``l``.
    ``Q``'s columns are the root square's non-vanishing vectors
    (:meth:`root_v_columns`), then the vanishing-moment vectors level by
    level, coarse to fine, squares in quadrant order; square ``s`` of level
    ``l`` owns columns ``w_start[l][s]`` to ``w_start[l][s] + n_w[l][s]``.

    Parameters
    ----------
    hierarchy:
        The multilevel square hierarchy over the contacts.
    order:
        Moment order ``p``; all moments of order <= ``p`` vanish for the
        wavelet basis functions (the paper uses ``p = 2``).
    rank_tol:
        Relative singular-value threshold below which a moment direction is
        treated as already vanishing.
    """

    def __init__(
        self,
        hierarchy: SquareHierarchy,
        order: int = 2,
        rank_tol: float = 1e-10,
    ) -> None:
        self.hierarchy = hierarchy
        self.order = order
        self.rank_tol = rank_tol
        self.n_moments = moment_count(order)
        self.squares: list[list[SquareBasis]] = [[] for _ in hierarchy.levels]
        self._build()
        self.q_matrix, self.w_start, self.n_w = self._assemble_q()

    # ------------------------------------------------------------------ build
    def _split_by_moments(self, moments: np.ndarray) -> SquareBasis:
        """SVD split of a moment matrix into (V, W, moments_of_V)."""
        n_cols = moments.shape[1]
        if n_cols == 0:
            empty = np.zeros((0, 0))
            return SquareBasis(empty, empty, np.zeros((self.n_moments, 0)))
        u, s, vh = np.linalg.svd(moments, full_matrices=True)
        if s.size == 0 or s[0] == 0.0:
            rank = 0
        else:
            rank = int(np.count_nonzero(s > self.rank_tol * s[0]))
        return SquareBasis(vh[:rank].T, vh[rank:].T, u[:, :rank] * s[:rank])

    def _centre(self, index: LevelIndex, s: int) -> tuple[float, float]:
        """Geometric centre of square ``s`` of ``index``'s level."""
        i, j = index.ij[s].tolist()
        nx = 2**index.level
        return ((i + 0.5) * self.hierarchy.size_x / nx, (j + 0.5) * self.hierarchy.size_y / nx)

    def _contacts(self, index: LevelIndex, s: int) -> np.ndarray:
        return index.contacts[index.contact_ptr[s] : index.contact_ptr[s + 1]]

    def _build(self) -> None:
        levels = self.hierarchy.levels
        # finest level: split by contact moments
        finest = levels[-1]
        self.squares[-1] = [
            self._split_by_moments(
                contact_moment_matrix(
                    self.hierarchy.layout,
                    self._contacts(finest, s),
                    self._centre(finest, s),
                    self.order,
                )
            )
            for s in range(finest.n_squares)
        ]
        # coarser levels: recombine children's V vectors
        for level in range(len(levels) - 2, -1, -1):
            self.squares[level] = [
                self._build_parent(levels[level], levels[level + 1], s)
                for s in range(levels[level].n_squares)
            ]

    def _build_parent(self, index: LevelIndex, below: LevelIndex, s: int) -> SquareBasis:
        parent_center = self._centre(index, s)
        parent_contacts = self._contacts(index, s)
        ptr, children = index.children
        blocks: list[np.ndarray] = []
        shifted_moments: list[np.ndarray] = []
        for c in children[ptr[s] : ptr[s + 1]]:
            cb = self.squares[below.level][c]
            shift = moment_shift_matrix(self._centre(below, c), parent_center, self.order)
            shifted_moments.append(shift @ cb.moments_V)
            embed = np.zeros((parent_contacts.size, cb.V.shape[1]))
            embed[np.searchsorted(parent_contacts, self._contacts(below, c)), :] = cb.V
            blocks.append(embed)
        split = self._split_by_moments(np.hstack(shifted_moments))
        v_children = np.hstack(blocks)
        return SquareBasis(v_children @ split.V, v_children @ split.W, split.moments_V)

    # -------------------------------------------------------------- assemble Q
    def _assemble_q(self) -> tuple[sparse.csc_matrix, list[np.ndarray], list[np.ndarray]]:
        """``Q``, and per level each square's first ``W`` column and ``W`` count."""
        levels = self.hierarchy.levels
        root = levels[0].contacts
        # coarsest-level non-vanishing vectors come first (Section 3.7.1),
        # then W vectors level by level, coarse to fine, quadrant-hierarchical
        blocks, rows, sizes = [self.squares[0][0].V], [root], [[root.size]]
        for index, bases in zip(levels, self.squares):
            blocks += [bases[s].W for s in index.quadrant]
            rows.append(index.contacts_of(index.quadrant))
            sizes.append(np.diff(index.contact_ptr)[index.quadrant])
        q, col_ptr = block_columns(
            blocks, offsets(np.concatenate(sizes)), np.concatenate(rows), root.size
        )
        q = pruned_q(q)
        w_start, n_w, block = [], [], 1
        for index in levels:
            placed = block + np.argsort(index.quadrant)
            w_start.append(col_ptr[placed])
            n_w.append(col_ptr[placed + 1] - col_ptr[placed])
            block += index.n_squares
        return q, w_start, n_w

    # ------------------------------------------------------------------ access
    @property
    def n_columns(self) -> int:
        return self.q_matrix.shape[1]

    def root_v_columns(self) -> np.ndarray:
        """Q column indices of the root square's non-vanishing vectors."""
        return np.arange(self.squares[0][0].V.shape[1])
