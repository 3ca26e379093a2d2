"""Wavelet (vanishing-moment) sparsification of the conductance matrix.

This is the algorithm of Chapter 3 (the DAC 2000 paper): build the multilevel
vanishing-moment basis ``Q`` from contact geometry, then extract the sparse
transformed matrix ``Gws`` with a near-constant number of black-box solves by
*combining solves* — vanishing-moment basis vectors from same-level squares
at least three squares apart are summed into a single solver call, and each
response is attributed to the unique nearby source square (Section 3.5,
Figure 3-5).

Only the entries allowed by the conservative locality assumption are kept:
interactions between vanishing-moment vectors in squares that are *not* well
separated (the finer square's ancestor at the coarser level is the same as or
a neighbour of the coarser square), plus all interactions involving the root
square's non-vanishing vectors.  Further sparsity is obtained by thresholding
(``Gwt``).

Every target projection ``W_t' r`` of a response is an entry of
``Q' @ responses``, so the extraction is one sparse product and one gather
through index arrays that depend only on the geometry (which theta holds
each column, and which entry of the product each kept ``Gws`` position
reads), built from the basis's per-level column arrays and the hierarchy's
(source, target) pairs.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..geometry.quadtree import SquareHierarchy, concat_ranges
from ..substrate.solver_base import SubstrateSolver
from .sparsified import SparsifiedConductance, mirrored_columns
from .wavelet_basis import WaveletBasis

__all__ = ["WaveletSparsifier"]


class WaveletSparsifier:
    """Wavelet-basis extraction/sparsification pipeline.

    Parameters
    ----------
    hierarchy:
        Multilevel square hierarchy over the contacts.
    order:
        Vanishing-moment order ``p`` (the paper uses 2).
    rank_tol:
        Relative SVD tolerance of the basis construction.
    max_block:
        Widest single ``solve_many`` submission.  :meth:`extract` stacks
        every black-box column (root vectors and all levels' combined
        vectors) into one submission and cuts it into chunks of at most
        this many columns (bounds the solver's working memory per call; does
        not change the attributed solve count or ``Gws``).
    """

    def __init__(
        self,
        hierarchy: SquareHierarchy,
        order: int = 2,
        rank_tol: float = 1e-10,
        max_block: int = 256,
    ) -> None:
        self.hierarchy = hierarchy
        self.basis = WaveletBasis(hierarchy, order=order, rank_tol=rank_tol)
        self.max_block = max(int(max_block), 1)

    def extract(self, solver: SubstrateSolver) -> SparsifiedConductance:
        """Extract ``Gws`` with the combine-solves technique (Section 3.5).

        Every black-box column is known before the first solve: the root
        square's non-vanishing vectors and each level's combined vectors
        theta are built from the geometry-only basis ``Q``, never from a
        response.  So all of them go to the black box as one stacked
        submission, chunked at ``max_block`` columns, and a factored solver
        pays its per-block cost once instead of once per level.  Each column
        is still one attributed solve.  Every target projection ``W_t' r``
        is an entry of ``Q' @ responses``, so ``Gws`` is that one product
        gathered through the index arrays of :meth:`_plan`.
        """
        q = self.basis.q_matrix  # csc
        membership, (rows, cols, src_rows, src_cols) = self._plan()
        v = np.hstack([q[:, self.basis.root_v_columns()].toarray(), (q @ membership).toarray()])
        responses = np.empty_like(v)
        for start in range(0, v.shape[1], self.max_block):
            block = slice(start, start + self.max_block)
            responses[:, block] = solver.solve_many(np.ascontiguousarray(v[:, block]))
        projected = q.T @ responses  # (ncols, solves)
        gws = sparse.coo_matrix((projected[src_rows, src_cols], (rows, cols)), shape=q.T.shape)
        return SparsifiedConductance(q, gws.tocsr(), n_solves=v.shape[1], method="wavelet")

    def _plan(self) -> tuple[sparse.csr_matrix, tuple[np.ndarray, ...]]:
        """``(membership, sources)``, fixed by the geometry.

        Theta sums the ``m``-th vanishing-moment vector of every square that
        has one in one ``(i mod 3, j mod 3)`` class of a level, so any two of
        its sources are at least three squares apart; thetas are numbered
        level by level (coarsest first), then by class, then by ``m``, and
        ``membership`` maps each column of ``Q`` to its theta.

        ``sources = (rows, cols, src_rows, src_cols)``: entry ``(rows[e],
        cols[e])`` of ``Gws`` is entry ``(src_rows[e], src_cols[e])`` of ``Q'
        @ responses``, whose first columns answer the root vectors and the
        rest the thetas.  The root rows and columns are full.  The response
        of the theta holding vector ``y`` of a source square is attributed to
        the vectors ``x`` of each of its target squares (at its level or finer,
        with an ancestor local to it), as entries ``(x, y)`` and ``(y, x)``.
        Where two sources attribute one position, the theta solved first
        gives it — the lower class of two neighbours, the smaller ``m``
        within one square — which is the first write when the blocks are
        written in theta order.
        """
        basis = self.basis
        levels = self.hierarchy.levels
        ncols = basis.n_columns
        # per square, numbered level by level: its vanishing-moment vectors
        # are consecutive columns of Q
        n_w = np.concatenate(basis.n_w)
        w_start = np.concatenate(basis.w_start)
        level = np.repeat(np.arange(len(levels)), [index.n_squares for index in levels])
        klass = np.concatenate([index.ij[:, 0] % 3 * 3 + index.ij[:, 1] % 3 for index in levels])

        owner = np.repeat(np.arange(n_w.size), n_w)
        m = concat_ranges(np.zeros(n_w.size, dtype=np.intp), n_w)
        code = (level[owner] * 9 + klass[owner]) * (int(n_w.max(initial=0)) + 1) + m
        thetas, theta = np.unique(code, return_inverse=True)
        theta_of = np.full(ncols, -1, dtype=np.intp)
        theta_of[w_start[owner] + m] = theta.ravel()
        membership = sparse.csr_matrix(
            (np.ones(owner.size), (w_start[owner] + m, theta.ravel())), shape=(ncols, thetas.size)
        )

        source, target = self.hierarchy.target_pairs()
        # one entry per (pair, source vector m, target vector x)
        per_m = np.repeat(np.arange(source.size), n_w[source])
        per_x = n_w[target[per_m]]
        m = np.repeat(concat_ranges(np.zeros(source.size, dtype=np.intp), n_w[source]), per_x)
        pair = np.repeat(per_m, per_x)
        x = concat_ranges(w_start[target[per_m]], per_x)
        s, t = source[pair], target[pair]
        y = w_start[s] + m
        neighbours = (level[s] == level[t]) & (s != t)
        first = ~neighbours | (klass[s] < klass[t])
        direct = first & ((s != t) | (m <= x - w_start[t]))
        mirrored = first & ((s != t) | (x - w_start[t] > m))
        src_col = basis.root_v_columns().size + theta_of[y]
        root = mirrored_columns(basis.root_v_columns(), ncols)
        return membership, (
            np.concatenate([root[0], x[direct], y[mirrored]]),
            np.concatenate([root[1], y[direct], x[mirrored]]),
            np.concatenate([root[2], x[direct], x[mirrored]]),
            np.concatenate([root[3], src_col[direct], src_col[mirrored]]),
        )

    # ------------------------------------------------------------ convenience
    def sparsify(
        self,
        solver: SubstrateSolver,
        threshold_sparsity_multiplier: float | None = None,
    ) -> SparsifiedConductance:
        """Extract ``Gws`` and optionally threshold to a sparser ``Gwt``.

        ``threshold_sparsity_multiplier = 6`` reproduces the paper's choice of
        making the thresholded matrix about six times sparser than ``Gws``.
        """
        rep = self.extract(solver)
        if threshold_sparsity_multiplier is None:
            return rep
        target = rep.sparsity_factor() * threshold_sparsity_multiplier
        return rep.threshold_to_sparsity(target)
