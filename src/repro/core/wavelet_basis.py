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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..geometry.quadtree import Square, SquareHierarchy
from .moments import contact_moment_matrix, moment_count, moment_shift_matrix
from .sparsified import block_columns, offsets, quadrant_order_key

__all__ = ["SquareBasis", "QColumn", "WaveletBasis"]

SquareKey = tuple[int, int, int]


@dataclass
class SquareBasis:
    """Per-square basis data.

    ``V`` spans the non-vanishing-moment subspace (pushed up to the parent),
    ``W`` spans the vanishing-moment subspace (contributed to ``Q``), both
    expressed on the square's own contacts (``contact_indices``), with
    orthonormal columns.  ``moments_V`` holds the moments of the ``V`` columns
    about the square centre, reused by the parent-level construction.
    """

    key: SquareKey
    contact_indices: np.ndarray
    V: np.ndarray
    W: np.ndarray
    moments_V: np.ndarray

    @property
    def n_vanishing(self) -> int:
        return self.W.shape[1]

    @property
    def n_nonvanishing(self) -> int:
        return self.V.shape[1]


@dataclass(frozen=True)
class QColumn:
    """Metadata for one column of ``Q``: which square and basis vector it is."""

    square_key: SquareKey
    kind: str  # "W" (vanishing) or "V0" (root non-vanishing)
    local_index: int


class WaveletBasis:
    """The multilevel wavelet basis and its change-of-basis matrix ``Q``.

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
        self.squares: dict[SquareKey, SquareBasis] = {}
        self._build()
        self.q_matrix, self.columns = self._assemble_q()
        self._column_offsets = self._index_columns()

    # ------------------------------------------------------------------ build
    def _split_by_moments(self, moments: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """SVD split of a moment matrix into (V, W, moments_of_V)."""
        n_cols = moments.shape[1]
        if n_cols == 0:
            empty = np.zeros((0, 0))
            return empty, empty, np.zeros((self.n_moments, 0))
        u, s, vh = np.linalg.svd(moments, full_matrices=True)
        if s.size == 0 or s[0] == 0.0:
            rank = 0
        else:
            rank = int(np.count_nonzero(s > self.rank_tol * s[0]))
        v = vh[:rank].T
        w = vh[rank:].T
        moments_v = u[:, :rank] * s[:rank]
        return v, w, moments_v

    def _build(self) -> None:
        hier = self.hierarchy
        layout = hier.layout
        # finest level: split by contact moments
        for square in hier.squares_at_level(hier.max_level):
            center = square.center(hier.size_x, hier.size_y)
            moments = contact_moment_matrix(
                layout, square.contact_indices, center, self.order
            )
            v, w, mv = self._split_by_moments(moments)
            self.squares[square.key] = SquareBasis(
                square.key, square.contact_indices, v, w, mv
            )
        # coarser levels: recombine children's V vectors
        for level in range(hier.max_level - 1, -1, -1):
            for square in hier.squares_at_level(level):
                self.squares[square.key] = self._build_parent(square)

    def _build_parent(self, square: Square) -> SquareBasis:
        hier = self.hierarchy
        parent_center = square.center(hier.size_x, hier.size_y)
        parent_contacts = square.contact_indices
        pos = {int(c): k for k, c in enumerate(parent_contacts)}

        children = hier.children(square)
        blocks: list[np.ndarray] = []
        shifted_moments: list[np.ndarray] = []
        for child in children:
            cb = self.squares[child.key]
            child_center = child.center(hier.size_x, hier.size_y)
            shift = moment_shift_matrix(child_center, parent_center, self.order)
            shifted_moments.append(shift @ cb.moments_V)
            embed = np.zeros((parent_contacts.size, cb.V.shape[1]))
            rows = np.array([pos[int(c)] for c in cb.contact_indices], dtype=int)
            embed[rows, :] = cb.V
            blocks.append(embed)
        v_children = np.hstack(blocks) if blocks else np.zeros((parent_contacts.size, 0))
        moments = (
            np.hstack(shifted_moments)
            if shifted_moments
            else np.zeros((self.n_moments, 0))
        )
        t, r, mv = self._split_by_moments(moments)
        v_parent = v_children @ t if t.size else np.zeros((parent_contacts.size, 0))
        w_parent = v_children @ r if r.size else np.zeros((parent_contacts.size, 0))
        return SquareBasis(square.key, parent_contacts, v_parent, w_parent, mv)

    # -------------------------------------------------------------- assemble Q
    def _assemble_q(self) -> tuple[sparse.csc_matrix, list[QColumn]]:
        # coarsest-level non-vanishing vectors come first (Section 3.7.1)
        blocks = [(self.squares[sq.key], "V0") for sq in self.hierarchy.squares_at_level(0)]
        # then W vectors level by level, coarse to fine, quadrant-hierarchical
        for level in range(0, self.hierarchy.max_level + 1):
            squares = sorted(
                self.hierarchy.squares_at_level(level),
                key=lambda s: quadrant_order_key(s.key),
            )
            bases = [self.squares[sq.key] for sq in squares]
            blocks += [(sb, "W") for sb in bases if sb.n_vanishing]
        matrices = [sb.V if kind == "V0" else sb.W for sb, kind in blocks]
        contacts = [sb.contact_indices for sb, _ in blocks]
        q, _ = block_columns(
            matrices,
            offsets([c.size for c in contacts]),
            np.concatenate(contacts),
            self.hierarchy.layout.n_contacts,
        )
        q = q.tocsc()
        q.eliminate_zeros()
        cols = [
            QColumn(sb.key, kind, local)
            for (sb, kind), matrix in zip(blocks, matrices)
            for local in range(matrix.shape[1])
        ]
        return q, cols

    def _index_columns(self) -> dict[tuple[SquareKey, str], np.ndarray]:
        columns: dict[tuple[SquareKey, str], list[int]] = {}
        for idx, col in enumerate(self.columns):
            columns.setdefault((col.square_key, col.kind), []).append(idx)
        return {k: np.array(v, dtype=int) for k, v in columns.items()}

    # ------------------------------------------------------------------ access
    @property
    def n_columns(self) -> int:
        return len(self.columns)

    def w_columns(self, key: SquareKey) -> np.ndarray:
        """Q column indices of the vanishing-moment vectors of a square."""
        return self._column_offsets.get((key, "W"), np.empty(0, dtype=int))

    def root_v_columns(self) -> np.ndarray:
        """Q column indices of the root square's non-vanishing vectors."""
        out = [
            self._column_offsets.get((sq.key, "V0"), np.empty(0, dtype=int))
            for sq in self.hierarchy.squares_at_level(0)
        ]
        return np.concatenate(out) if out else np.empty(0, dtype=int)

    def basis(self, key: SquareKey) -> SquareBasis:
        return self.squares[key]

    def check_orthogonality(self) -> float:
        """Return ``||Q'Q - I||_max`` (should be ~machine precision)."""
        qtq = (self.q_matrix.T @ self.q_matrix).toarray()
        return float(np.abs(qtq - np.eye(qtq.shape[0])).max())

    def check_completeness(self) -> bool:
        """True when ``Q`` is square (the basis spans the full voltage space)."""
        return self.q_matrix.shape[0] == self.q_matrix.shape[1]
