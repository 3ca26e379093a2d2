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
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..geometry.quadtree import Square, SquareHierarchy
from ..substrate.solver_base import SubstrateSolver
from .sparsified import EntryAssembler, SparsifiedConductance
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

    # --------------------------------------------------------------- locality
    def kept_pattern(self) -> sparse.csr_matrix:
        """Boolean sparsity pattern of ``Gws`` implied by the locality assumption."""
        basis = self.basis
        ncols = basis.n_columns
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []

        root_cols = basis.root_v_columns()
        if root_cols.size:
            all_cols = np.arange(ncols)
            for j in root_cols:
                rows.append(np.full(ncols, j))
                cols.append(all_cols)
                rows.append(all_cols)
                cols.append(np.full(ncols, j))

        for level in self.hierarchy.levels():
            for source in self.hierarchy.squares_at_level(level):
                source_cols = basis.w_columns(source.key)
                if source_cols.size == 0:
                    continue
                for target in self.hierarchy.target_squares(source):
                    target_cols = basis.w_columns(target.key)
                    if target_cols.size == 0:
                        continue
                    rr, cc = np.meshgrid(target_cols, source_cols, indexing="ij")
                    rows.append(rr.ravel())
                    cols.append(cc.ravel())
                    rows.append(cc.ravel())
                    cols.append(rr.ravel())
        row = np.concatenate(rows) if rows else np.empty(0, dtype=int)
        col = np.concatenate(cols) if cols else np.empty(0, dtype=int)
        pattern = sparse.coo_matrix(
            (np.ones(row.size, dtype=bool), (row, col)), shape=(ncols, ncols)
        ).tocsr()
        pattern.data[:] = True
        return pattern

    # ------------------------------------------------------------- extraction
    def transform_dense(self, g_exact: np.ndarray) -> np.ndarray:
        """Full transformed matrix ``Gw = Q' G Q`` from a known dense ``G``."""
        q = self.basis.q_matrix.toarray()
        return q.T @ np.asarray(g_exact, dtype=float) @ q

    def extract_with_dense(self, g_exact: np.ndarray) -> SparsifiedConductance:
        """``Gws`` from a known dense ``G`` (no black-box solves).

        Applies the locality pattern to the exact ``Q' G Q``; used to isolate
        the basis-quality question from the combine-solves approximation.
        """
        gw_full = self.transform_dense(g_exact)
        pattern = self.kept_pattern().tocoo()
        data = gw_full[pattern.row, pattern.col]
        gws = sparse.coo_matrix((data, (pattern.row, pattern.col)), shape=pattern.shape)
        return SparsifiedConductance(
            self.basis.q_matrix, gws.tocsr(), n_solves=0, method="wavelet(dense)"
        )

    def extract(self, solver: SubstrateSolver) -> SparsifiedConductance:
        """Extract ``Gws`` with the combine-solves technique (Section 3.5).

        Every black-box column is known before the first solve: the root
        square's non-vanishing vectors and each level's combined vectors
        theta are built from the geometry-only basis ``Q``, never from a
        response.  So all of them go to the black box as one stacked
        submission, chunked at ``max_block`` columns, and a factored solver
        pays its per-block cost once instead of once per level.  Each column
        is still one attributed solve, and the responses are read in the
        order of the level-by-level method, so ``Gws`` is unchanged.
        """
        basis = self.basis
        hier = self.hierarchy
        ncols = basis.n_columns
        q = basis.q_matrix  # csc

        root_cols = basis.root_v_columns()
        combined = self._combined_sources()
        n_root = int(root_cols.size)
        v = np.zeros((hier.layout.n_contacts, n_root + len(combined)))
        v[:, :n_root] = q[:, root_cols].toarray()
        for col, (contributing, m) in enumerate(combined, start=n_root):
            for sq in contributing:
                sb = basis.basis(sq.key)
                v[sb.contact_indices, col] += sb.W[:, m]
        responses = np.empty_like(v)
        for start in range(0, v.shape[1], self.max_block):
            block = slice(start, start + self.max_block)
            responses[:, block] = solver.solve_many(np.ascontiguousarray(v[:, block]))

        entries = EntryAssembler(ncols)

        # 1. root non-vanishing vectors: full rows and columns
        if n_root:
            rows_block = q.T @ responses[:, :n_root]  # (ncols, n_root)
            all_cols = np.arange(ncols)
            for pos, j in enumerate(root_cols):
                row = np.asarray(rows_block[:, pos]).ravel()
                entries.add(np.full(ncols, j), all_cols, row)
                entries.add(all_cols, np.full(ncols, j), row)

        # 2. each theta's response is attributed to the unique nearby source
        for col, (contributing, m) in enumerate(combined, start=n_root):
            response = responses[:, col]
            for sq in contributing:
                source_col = int(basis.w_columns(sq.key)[m])
                for target in hier.target_squares(sq):
                    tb = basis.basis(target.key)
                    if tb.n_vanishing == 0:
                        continue
                    vals = tb.W.T @ response[tb.contact_indices]
                    tcols = basis.w_columns(target.key)
                    entries.add(tcols, np.full(tcols.size, source_col), vals)
                    entries.add(np.full(tcols.size, source_col), tcols, vals)

        return SparsifiedConductance(
            q, entries.to_csr(), n_solves=v.shape[1], method="wavelet"
        )

    def _combined_sources(self) -> list[tuple[list[Square], int]]:
        """The combined vectors theta of every level, as ``(sources, m)``.

        Theta sums the ``m``-th vanishing-moment vector of every square that
        has one in one ``(i mod 3, j mod 3)`` class of a level, so any two of
        its sources are at least three squares apart.  Listed level by
        level, coarsest first.
        """
        basis = self.basis
        combined: list[tuple[list[Square], int]] = []
        for level in self.hierarchy.levels():
            squares = [
                sq
                for sq in self.hierarchy.squares_at_level(level)
                if basis.basis(sq.key).n_vanishing > 0
            ]
            for a in range(3):
                for b in range(3):
                    group = [sq for sq in squares if sq.i % 3 == a and sq.j % 3 == b]
                    if not group:
                        continue
                    max_w = max(basis.basis(sq.key).n_vanishing for sq in group)
                    for m in range(max_w):
                        contributing = [
                            sq for sq in group if m < basis.basis(sq.key).n_vanishing
                        ]
                        combined.append((contributing, m))
        return combined

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
