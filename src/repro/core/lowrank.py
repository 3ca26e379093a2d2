"""Low-rank sparsification: fine-to-coarse sweep and the ``Q Gw Q'`` output.

Section 4.4: starting from the multilevel row-basis representation, the
fine-to-coarse sweep recombines the *slow-decaying* basis vectors of the four
children of each square into fast-decaying (``T_p``) and slow-decaying
(``U_p``) vectors of the parent, using the SVD of the interaction
``G_{I_p, p} X_p`` evaluated *through the representation* (no further
black-box solves).  The fast-decaying vectors of every square, plus the
slow-decaying vectors of the coarsest (level-2) squares, form the orthogonal
change-of-basis ``Q``; the transformed matrix ``Gw`` keeps only interactions
between basis functions in squares local to each other (same- or cross-level)
and the coarsest-level slow-decaying interactions with everything, exactly as
in the wavelet representation — which makes the two methods directly
comparable (Tables 4.1 and 4.2).

Like the representation it starts from, the sweep is held per level
(:class:`LevelBases`): each level's ``T`` and ``U`` vectors and their local
responses are sparse ``n``-row operators stacked over the level's squares.
One level of the sweep is a few sparse products (every parent's interaction
through the representation at once) and one batched thin SVD per shape of
interaction, and each pair of levels contributes one ``T' (G T)`` product to
``Gw``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..geometry.quadtree import SquareHierarchy, concat_ranges, offsets
from ..substrate.solver_base import SubstrateSolver
from .rowbasis import MultilevelRowBasis, RowBasisLevel
from .sparsified import (
    SparsifiedConductance,
    block_columns,
    block_entries,
    block_stacks,
    mirrored_columns,
    pruned_q,
)

__all__ = ["LevelBases", "LowRankSparsifier"]


@dataclass
class LevelBases:
    """Fast-decaying (T) and slow-decaying (U) bases of one level.

    Square ``s`` owns columns ``t_cols[s]:t_cols[s + 1]`` of ``t`` (its
    ``T_s`` on its contacts) and of ``resp_t`` (``G_{L_s, s} T_s`` on its
    local contacts), and likewise ``u_cols`` of ``u`` and ``resp_u``.
    """

    t: sparse.csc_matrix
    t_cols: np.ndarray
    resp_t: sparse.spmatrix
    u: sparse.csc_matrix
    u_cols: np.ndarray
    resp_u: sparse.spmatrix


class LowRankSparsifier:
    """The low-rank extraction/sparsification pipeline of Chapter 4.

    Parameters
    ----------
    hierarchy:
        Multilevel square hierarchy over the contacts.
    max_rank:
        Maximum number of slow-decaying vectors kept per square (paper: 6).
    sv_rel_threshold:
        Relative singular-value threshold defining "large" singular values
        (paper: 1/100).
    seed:
        Seed for the random sample vectors of the coarse-to-fine sweep.
    """

    def __init__(
        self,
        hierarchy: SquareHierarchy,
        max_rank: int = 6,
        sv_rel_threshold: float = 1e-2,
        seed: int = 0,
        max_block: int = 256,
    ) -> None:
        self.hierarchy = hierarchy
        self.max_rank = max_rank
        self.sv_rel_threshold = sv_rel_threshold
        self.rowbasis = MultilevelRowBasis(
            hierarchy,
            max_rank=max_rank,
            sv_rel_threshold=sv_rel_threshold,
            seed=seed,
            max_block=max_block,
        )
        #: level -> its T/U bases, filled by the fine-to-coarse sweep
        self.bases: dict[int, LevelBases] = {}

    # ----------------------------------------------------------------- phase 1
    def build(self, solver: SubstrateSolver) -> "LowRankSparsifier":
        """Run the coarse-to-fine sweep (all the black-box solves happen here)."""
        self.rowbasis.build(solver)
        return self

    @property
    def n_solves(self) -> int:
        return self.rowbasis.n_solves

    # ----------------------------------------------------------------- phase 2
    def _split_fast_slow(self, interactions: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        """SVD split of stacked ``r x m`` interactions into slow (U) / fast (T) coefficients.

        Only the right singular vectors are read, so a tall interaction is
        first reduced to the ``m x m`` triangle of its QR (the reduction
        LAPACK's SVD makes itself for a tall matrix) and the full SVD is
        taken of that.
        """
        n_rows, m = interactions.shape[1:]
        if n_rows == 0 or m == 0:
            # nothing to separate against: keep everything as slow-decaying
            return [(np.eye(m), np.zeros((m, 0)))] * interactions.shape[0]
        if n_rows > m:
            interactions = np.linalg.qr(interactions, mode="r")
        _, sv, vh = np.linalg.svd(interactions, full_matrices=True)
        out = []
        for s, v in zip(sv, vh):
            large = np.count_nonzero(s > self.sv_rel_threshold * s[0])
            rank = min(int(large), self.max_rank) if s[0] != 0.0 else 0
            out.append((v[:rank].T, v[rank:].T))
        return out

    def _build_fine_to_coarse(self) -> None:
        rb = self.rowbasis
        top = rb.levels[-1]
        # finest level: U = row basis, T = its orthonormal complement
        w, w_cols = rb.finest_w
        self.bases[top.index.level] = LevelBases(
            w, w_cols, rb.local @ w, top.v.tocsc(), top.cols, rb.local @ top.v
        )
        for parent, child in zip(rb.levels[-2::-1], rb.levels[:0:-1]):
            self.bases[parent.index.level] = self._build_parents(
                parent, child, self.bases[child.index.level]
            )

    def _build_parents(
        self, parent: RowBasisLevel, child: RowBasisLevel, child_bases: LevelBases
    ) -> LevelBases:
        """One level of the sweep: every parent's T and U from its children's U."""
        pindex, cindex = parent.index, child.index
        n_parents = pindex.n_squares
        # X_p: the children's U side by side, parent after parent, each
        # parent's children in child order
        order = pindex.children[1]
        u_count = np.diff(child_bases.u_cols)
        perm = concat_ranges(child_bases.u_cols[order], u_count[order])
        x = child_bases.u[:, perm]
        m = np.bincount(cindex.parent, weights=u_count, minlength=n_parents).astype(np.intp)
        x_cols = offsets(m)

        # interaction with each parent's interactive region through the
        # representation, gathered as one dense block per parent: rows of
        # I_p square after square, columns of X_p
        inter = parent.interactive(x).tocsr()
        inter.sum_duplicates()
        rows, row_ptr = pindex.rows("interactive", np.arange(n_parents))
        block, r, c = block_entries(np.diff(row_ptr), m)
        values = np.asarray(inter[rows[row_ptr[block] + r], x_cols[block] + c]).ravel()
        coefs: list[tuple[np.ndarray, ...]] = [()] * n_parents
        for ids, stack in block_stacks(values, np.diff(row_ptr), m):
            for p, split in zip(ids, self._split_fast_slow(stack)):
                coefs[p] = split
        x_rows = np.arange(x_cols[-1])
        u_coef, u_cols = block_columns([u for u, _ in coefs], x_cols, x_rows, x_cols[-1])
        t_coef, t_cols = block_columns([t for _, t in coefs], x_cols, x_rows, x_cols[-1])

        # local responses to the X_p columns, assembled from the children:
        # P_c of every child is the children of L_parent, so a child's local
        # and interactive responses together cover L_parent's contacts
        resp_x = (child_bases.resp_u + child.interactive(child_bases.u)).tocsc()[:, perm]
        return LevelBases(
            (x @ t_coef).tocsc(),
            t_cols,
            resp_x @ t_coef,
            (x @ u_coef).tocsc(),
            u_cols,
            resp_x @ u_coef,
        )

    # ----------------------------------------------------------- assemble Q/Gw
    def _quadrant_columns(self, level: int, cols: np.ndarray) -> np.ndarray:
        """A level's columns, square by square in quadrant order (``Q``'s layout)."""
        order = self.hierarchy.levels[level].quadrant
        return concat_ranges(cols[order], np.diff(cols)[order])

    def to_sparsified(self) -> SparsifiedConductance:
        """Run the fine-to-coarse sweep and return the ``Q Gw Q'`` representation."""
        if not self.rowbasis.built:
            raise RuntimeError("call build(solver) first")
        if not self.bases:
            self._build_fine_to_coarse()
        levels = sorted(self.bases)
        coarsest = self.bases[levels[0]]

        # Q: coarsest slow-decaying vectors first, then fast-decaying level by level
        u_order = self._quadrant_columns(levels[0], coarsest.u_cols)
        pieces = [coarsest.u[:, u_order]]
        q_col = {}  # level -> the Q column of each of its T columns
        start = u_order.size
        for level in levels:
            t_order = self._quadrant_columns(level, self.bases[level].t_cols)
            pieces.append(self.bases[level].t[:, t_order])
            q_col[level] = np.empty(t_order.size, dtype=np.intp)
            q_col[level][t_order] = start + np.arange(t_order.size)
            start += t_order.size
        q = pruned_q(sparse.hstack(pieces, format="csc"))
        ncols = q.shape[1]

        # fast-decaying interactions between local squares (same or finer
        # level): T_target' (G_{L_s, s} T_s) for every pair of levels at
        # once.  A same-level pair is evaluated from both sides; the square
        # first in hierarchy order gives both of its entries, as when every
        # block was written in that order and the first write kept.
        rows, cols, vals = [], [], []
        for source in levels:
            t_cols = self.bases[source].t_cols
            square_of = np.repeat(np.arange(t_cols.size - 1), np.diff(t_cols))
            for target in levels[levels.index(source) :]:
                block = (self.bases[target].t.T @ self.bases[source].resp_t).tocoo()
                r, c = q_col[target][block.row], q_col[source][block.col]
                keep = mirror = np.ones(block.nnz, dtype=bool)
                if target == source:
                    keep = square_of[block.col] <= square_of[block.row]
                    mirror = square_of[block.col] < square_of[block.row]
                rows += [r[keep], c[mirror]]
                cols += [c[keep], r[mirror]]
                vals += [block.data[keep], block.data[mirror]]

        # coarsest-level slow-decaying vectors interact with everything: their
        # columns of Q go through the representation as one block
        u_cols = np.argsort(u_order)
        if u_cols.size:
            responses = self.rowbasis.apply_block(q[:, u_cols].toarray())
            gw_cols = q.T @ responses  # (ncols, r)
            r, c, src_rows, src_cols = mirrored_columns(u_cols, ncols)
            rows.append(r)
            cols.append(c)
            vals.append(gw_cols[src_rows, src_cols])

        entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
        gw = sparse.coo_matrix(entries, shape=(ncols, ncols)).tocsr()
        # the exact Gw is symmetric (Section 2.4); averaging the two
        # independently approximated halves removes the small asymmetry left
        # by the representation.
        gw = 0.5 * (gw + gw.T)
        return SparsifiedConductance(q, gw, n_solves=self.rowbasis.n_solves, method="lowrank")

    # ------------------------------------------------------------- convenience
    def sparsify(
        self,
        solver: SubstrateSolver,
        threshold_sparsity_multiplier: float | None = None,
    ) -> SparsifiedConductance:
        """Build the representation and optionally threshold it (paper: 6x)."""
        if not self.rowbasis.built:
            self.build(solver)
        rep = self.to_sparsified()
        if threshold_sparsity_multiplier is None:
            return rep
        target = rep.sparsity_factor() * threshold_sparsity_multiplier
        return rep.threshold_to_sparsity(target)
