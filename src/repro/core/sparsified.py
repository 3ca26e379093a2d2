"""Sparse representation ``G ~ Q Gw Q'`` of the conductance matrix.

Both the wavelet method (Chapter 3) and the low-rank method (Chapter 4)
produce the same kind of object: an orthogonal, sparse change-of-basis ``Q``
and a sparse transformed matrix ``Gw``.  This module provides the container
with the operations used throughout the evaluation: applying the represented
operator, measuring sparsity, thresholding small entries (``Gwt``), and
reconstructing dense approximations for error measurement.

It also holds the index arithmetic both sparsifiers use to keep per-square
data stacked: dense blocks stored back to back, gathered, grouped by shape
for one batched LAPACK call, and laid side by side in sparse ``n``-row
operators; and the one cut of rounding noise both ``Q`` assemblies apply
(:func:`pruned_q`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..geometry.quadtree import offsets

__all__ = [
    "Q_CUT",
    "SparsifiedConductance",
    "block_columns",
    "block_entries",
    "block_stacks",
    "mirrored_columns",
    "pruned_q",
    "shape_groups",
]

#: entries of ``Q`` below this fraction of their column's largest are dropped
Q_CUT = 1e-12


def block_entries(n_rows: np.ndarray, n_cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(block, row, col)`` of every entry of row-major blocks stored back to back.

    Block ``b`` is ``n_rows[b] x n_cols[b]``.
    """
    sizes = np.asarray(n_rows) * np.asarray(n_cols)
    block = np.repeat(np.arange(sizes.size), sizes)
    within = np.arange(int(sizes.sum())) - np.repeat(offsets(sizes)[:-1], sizes)
    width = np.maximum(n_cols, 1)[block]
    return block, within // width, within % width


def block_columns(
    blocks: list[np.ndarray], row_ptr: np.ndarray, rows: np.ndarray, n: int
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """``(matrix, col_ptr)``: dense ``blocks`` side by side in an ``n``-row sparse matrix.

    Block ``b`` lands on rows ``rows[row_ptr[b]:row_ptr[b + 1]]`` and on
    columns ``col_ptr[b]:col_ptr[b + 1]``.
    """
    col_ptr = offsets([b.shape[1] for b in blocks])
    block, r, c = block_entries(np.diff(row_ptr), np.diff(col_ptr))
    data = np.concatenate([b.ravel() for b in blocks]) if blocks else np.empty(0)
    matrix = sparse.csr_matrix(
        (data, (rows[row_ptr[block] + r], col_ptr[block] + c)), shape=(n, int(col_ptr[-1]))
    )
    return matrix, col_ptr


def shape_groups(n_rows: np.ndarray, n_cols: np.ndarray):
    """Yield ``(ids, rows, cols)``: the blocks of each distinct shape.

    Block ``b`` is ``n_rows[b] x n_cols[b]``; grouping blocks by shape lets
    one batched LAPACK call replace one call per block.
    """
    shapes, inverse = np.unique(np.stack([n_rows, n_cols], axis=1), axis=0, return_inverse=True)
    for group, (rows, cols) in enumerate(shapes):
        yield np.flatnonzero(inverse.ravel() == group), int(rows), int(cols)


def block_stacks(values: np.ndarray, n_rows: np.ndarray, n_cols: np.ndarray):
    """Blocks stored back to back (row-major) in ``values``, stacked by shape.

    Yields ``(ids, stack)``: the block numbers of one shape and their
    ``(len(ids), rows, cols)`` stack.
    """
    starts = offsets(np.asarray(n_rows) * np.asarray(n_cols))
    for ids, rows, cols in shape_groups(n_rows, n_cols):
        flat = starts[ids][:, None] + np.arange(rows * cols)
        yield ids, values[flat].reshape(ids.size, rows, cols)


def pruned_q(q: sparse.spmatrix) -> sparse.csc_matrix:
    """``q`` in CSC without its rounding noise.

    Both sparsifiers assemble ``Q`` through this.  An entry that cancels to
    ~1e-16 of its column counts in one summation order and not in another,
    so entries below ``Q_CUT`` times their column's largest magnitude are
    dropped: every other entry of a paper-table ``Q`` is at least 1e-7 of
    its column's largest.
    """
    q = sparse.csc_matrix(q)
    # per column, in place: scipy's own reductions would sort the indices
    # first, which changes the order of every later sum over them
    magnitude = np.abs(q.data)
    col = np.repeat(np.arange(q.shape[1]), np.diff(q.indptr))
    largest = np.zeros(q.shape[1])
    np.maximum.at(largest, col, magnitude)
    q.data[magnitude < Q_CUT * largest[col]] = 0.0
    q.eliminate_zeros()
    return q


def mirrored_columns(cols: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Where rows and columns ``cols`` of a symmetric ``n x n`` matrix come from.

    Both sparsifiers fill these rows and columns of ``Gw`` from a block
    ``B = Gw[:, cols]`` evaluated column by column, writing column ``k`` and
    row ``cols[k]`` for ``k = 0, 1, ...`` with the first write of a position
    kept.  Returns ``(rows, columns, src_rows, src_cols)``: entry
    ``(rows[e], columns[e])`` is ``B[src_rows[e], src_cols[e]]``, so the
    ``cols x cols`` block comes from the lower triangle of ``B[cols, :]``.
    """
    cols = np.asarray(cols, dtype=np.intp)
    r = cols.size
    others = np.setdiff1d(np.arange(n), cols)
    other_rows = np.repeat(others, r)
    k = np.tile(np.arange(r), others.size)
    lower_j, lower_k = np.tril_indices(r)
    upper = lower_j > lower_k
    return (
        np.concatenate([other_rows, cols[k], cols[lower_j], cols[lower_k[upper]]]),
        np.concatenate([cols[k], other_rows, cols[lower_k], cols[lower_j[upper]]]),
        np.concatenate([other_rows, other_rows, cols[lower_j], cols[lower_j[upper]]]),
        np.concatenate([k, k, lower_k, lower_k[upper]]),
    )


@dataclass
class SparsifiedConductance:
    """Container for the ``G ~ Q Gw Q'`` representation.

    Attributes
    ----------
    q:
        Sparse orthogonal change-of-basis matrix (``n x m``; square when the
        basis is complete).
    gw:
        Sparse transformed conductance matrix (``m x m``).
    n_solves:
        Number of black-box solver calls spent building the representation
        (0 when built from an explicitly known ``G``).
    method:
        Human-readable tag ("wavelet", "lowrank", ...).
    """

    q: sparse.spmatrix
    gw: sparse.spmatrix
    n_solves: int = 0
    method: str = ""

    def __post_init__(self) -> None:
        self.q = sparse.csr_matrix(self.q)
        self.gw = sparse.csr_matrix(self.gw)
        if self.q.shape[1] != self.gw.shape[0] or self.gw.shape[0] != self.gw.shape[1]:
            raise ValueError("inconsistent Q / Gw shapes")

    # ------------------------------------------------------------------ basics
    @property
    def n_contacts(self) -> int:
        return self.q.shape[0]

    @property
    def nnz_gw(self) -> int:
        return int(self.gw.nnz)

    @property
    def nnz_q(self) -> int:
        return int(self.q.nnz)

    def sparsity_factor(self) -> float:
        """``n^2 / nnz(Gw)`` — the paper's "sparsity" measure for ``Gw``."""
        n = self.n_contacts
        return n * n / max(self.nnz_gw, 1)

    def q_sparsity_factor(self) -> float:
        """``n^2 / nnz(Q)``."""
        n = self.n_contacts
        return n * n / max(self.nnz_q, 1)

    def solve_reduction_factor(self) -> float:
        """``n / (number of black-box solves used)``."""
        if self.n_solves <= 0:
            return float("inf")
        return self.n_contacts / self.n_solves

    # ------------------------------------------------------------------- apply
    def apply(self, voltages: np.ndarray) -> np.ndarray:
        """Apply the represented operator: ``Q (Gw (Q' v))``."""
        v = np.asarray(voltages, dtype=float)
        return self.q @ (self.gw @ (self.q.T @ v))

    def matmat(self, block: np.ndarray) -> np.ndarray:
        """Apply to several voltage vectors (columns of ``block``)."""
        return self.q @ (self.gw @ (self.q.T @ np.asarray(block, dtype=float)))

    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense approximation ``Q Gw Q'``."""
        qd = self.q.toarray()
        return qd @ self.gw.toarray() @ qd.T

    # -------------------------------------------------------------- threshold
    def threshold(self, absolute: float) -> "SparsifiedConductance":
        """Drop entries of ``Gw`` with magnitude below ``absolute``."""
        gw = self.gw.tocoo(copy=True)
        keep = np.abs(gw.data) >= absolute
        gwt = sparse.coo_matrix(
            (gw.data[keep], (gw.row[keep], gw.col[keep])), shape=gw.shape
        )
        return SparsifiedConductance(self.q, gwt.tocsr(), self.n_solves, self.method + "+threshold")

    def threshold_to_sparsity(
        self, target_sparsity: float, max_bisections: int = 60
    ) -> "SparsifiedConductance":
        """Threshold so the sparsity factor is (approximately) ``target_sparsity``.

        The paper chooses the threshold by binary search so that ``Gwt`` is
        about 6x sparser than the unthresholded ``Gws`` (Section 4.6).
        """
        n = self.n_contacts
        target_nnz = max(1, int(round(n * n / target_sparsity)))
        data = np.abs(self.gw.tocoo().data)
        if data.size <= target_nnz:
            return SparsifiedConductance(self.q, self.gw, self.n_solves, self.method)
        lo, hi = 0.0, float(data.max())
        for _ in range(max_bisections):
            mid = 0.5 * (lo + hi)
            nnz = int(np.count_nonzero(data >= mid))
            if nnz > target_nnz:
                lo = mid
            else:
                hi = mid
        return self.threshold(hi)

    # ------------------------------------------------------------------ report
    def summary(self) -> dict[str, float]:
        """Headline numbers used in the paper's tables."""
        return {
            "n_contacts": float(self.n_contacts),
            "nnz_gw": float(self.nnz_gw),
            "nnz_q": float(self.nnz_q),
            "sparsity_factor": self.sparsity_factor(),
            "q_sparsity_factor": self.q_sparsity_factor(),
            "n_solves": float(self.n_solves),
            "solve_reduction_factor": self.solve_reduction_factor(),
        }
