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
from .sparsified import SparsifiedConductance
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
        Largest number of combined-solve right-hand sides submitted to the
        black box per ``solve_many`` call (memory bound; does not change the
        attributed solve count).
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
        """Extract ``Gws`` with the combine-solves technique (Section 3.5)."""
        basis = self.basis
        hier = self.hierarchy
        n = hier.layout.n_contacts
        ncols = basis.n_columns
        q = basis.q_matrix  # csc
        n_solves = 0

        entry_rows: list[np.ndarray] = []
        entry_cols: list[np.ndarray] = []
        entry_vals: list[np.ndarray] = []

        def record(rr: np.ndarray, cc: np.ndarray, vv: np.ndarray) -> None:
            entry_rows.append(np.asarray(rr, dtype=int).ravel())
            entry_cols.append(np.asarray(cc, dtype=int).ravel())
            entry_vals.append(np.asarray(vv, dtype=float).ravel())

        # 1. root non-vanishing vectors: full rows and columns (few solves).
        # All root columns go to the black box as one stacked-RHS submission.
        root_cols = basis.root_v_columns()
        if root_cols.size:
            q_root = np.asarray(q[:, root_cols].todense())
            responses = solver.solve_many(q_root)
            n_solves += int(root_cols.size)
            rows_block = q.T @ responses  # (ncols, n_root)
            all_cols = np.arange(ncols)
            for pos, j in enumerate(root_cols):
                row = np.asarray(rows_block[:, pos]).ravel()
                record(np.full(ncols, j), all_cols, row)
                record(all_cols, np.full(ncols, j), row)

        # 2. combine-solves for the vanishing-moment vectors, level by level.
        # The combined vectors theta of one level are mutually independent, so
        # the whole level is submitted as a single solve_many block; each
        # column is still attributed as one black-box solve (the grouping —
        # which squares share a theta — is unchanged by batching).
        for level in hier.levels():
            squares = [
                sq
                for sq in hier.squares_at_level(level)
                if basis.basis(sq.key).n_vanishing > 0
            ]
            if not squares:
                continue
            thetas: list[np.ndarray] = []
            theta_sources: list[list[Square]] = []
            theta_modes: list[int] = []
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
                        if not contributing:
                            continue
                        theta = np.zeros(n)
                        for sq in contributing:
                            sb = basis.basis(sq.key)
                            theta[sb.contact_indices] += sb.W[:, m]
                        thetas.append(theta)
                        theta_sources.append(contributing)
                        theta_modes.append(m)
            if not thetas:
                continue
            # bounded chunks keep the (n, k) submission from growing with the
            # square count on coarse levels of very large layouts
            for start in range(0, len(thetas), self.max_block):
                stop = min(start + self.max_block, len(thetas))
                responses = solver.solve_many(np.column_stack(thetas[start:stop]))
                n_solves += stop - start
                for col in range(stop - start):
                    response = responses[:, col]
                    contributing = theta_sources[start + col]
                    m = theta_modes[start + col]
                    for sq in contributing:
                        source_col = int(basis.w_columns(sq.key)[m])
                        for target in hier.target_squares(sq):
                            tb = basis.basis(target.key)
                            if tb.n_vanishing == 0:
                                continue
                            vals = tb.W.T @ response[tb.contact_indices]
                            tcols = basis.w_columns(target.key)
                            record(tcols, np.full(tcols.size, source_col), vals)
                            record(np.full(tcols.size, source_col), tcols, vals)

        gws = self._assemble(entry_rows, entry_cols, entry_vals, ncols)
        return SparsifiedConductance(q, gws, n_solves=n_solves, method="wavelet")

    @staticmethod
    def _assemble(
        rows: list[np.ndarray],
        cols: list[np.ndarray],
        vals: list[np.ndarray],
        ncols: int,
    ) -> sparse.csr_matrix:
        """Assemble entries with assignment semantics (first write wins)."""
        if not rows:
            return sparse.csr_matrix((ncols, ncols))
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        v = np.concatenate(vals)
        flat = r.astype(np.int64) * ncols + c
        _, first = np.unique(flat, return_index=True)
        return sparse.coo_matrix(
            (v[first], (r[first], c[first])), shape=(ncols, ncols)
        ).tocsr()

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
