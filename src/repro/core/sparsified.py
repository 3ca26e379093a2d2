"""Sparse representation ``G ~ Q Gw Q'`` of the conductance matrix.

Both the wavelet method (Chapter 3) and the low-rank method (Chapter 4)
produce the same kind of object: an orthogonal, sparse change-of-basis ``Q``
and a sparse transformed matrix ``Gw``.  This module provides the container
with the operations used throughout the evaluation: applying the represented
operator, measuring sparsity, thresholding small entries (``Gwt``), and
reconstructing dense approximations for error measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = ["SparsifiedConductance", "EntryAssembler", "ColumnAssembler", "quadrant_order_key"]


def quadrant_order_key(key: tuple[int, int, int]) -> int:
    """Quadrant-hierarchical (Morton-style, top-left first) order of a square.

    Both sparsifiers order a level's squares by this key when they lay out
    the columns of ``Q``.
    """
    level, i, j = key
    jj = (2**level - 1) - j  # top quadrants first
    code = 0
    for bit in range(level - 1, -1, -1):
        code = (code << 2) | ((((jj >> bit) & 1) << 1) | ((i >> bit) & 1))
    return code


class ColumnAssembler:
    """Columns of a sparse ``n``-row matrix, appended block by block.

    Both sparsifiers build ``Q`` this way: :meth:`add` appends the columns
    of a dense block whose rows are the given contacts, keeping only their
    nonzeros, and returns the new columns' indices; :meth:`to_csc`
    assembles the matrix.
    """

    def __init__(self, n: int) -> None:
        self.n = int(n)
        self._rows: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []
        self._indptr: list[int] = [0]

    def add(self, contacts: np.ndarray, block: np.ndarray) -> np.ndarray:
        start = len(self._indptr) - 1
        for column in block.T:
            nz = np.flatnonzero(np.abs(column) > 0)
            self._rows.append(contacts[nz])
            self._vals.append(column[nz])
            self._indptr.append(self._indptr[-1] + nz.size)
        return np.arange(start, len(self._indptr) - 1)

    def to_csc(self) -> sparse.csc_matrix:
        m = len(self._indptr) - 1
        if m == 0:
            return sparse.csc_matrix((self.n, 0))
        return sparse.csc_matrix(
            (np.concatenate(self._vals), np.concatenate(self._rows), np.array(self._indptr)),
            shape=(self.n, m),
        )


class EntryAssembler:
    """Entries of a square sparse matrix, collected block by block.

    Both sparsifiers fill ``Gw`` this way: :meth:`add` takes parallel row,
    column and value arrays of any shape, and :meth:`to_csr` assembles them
    with assignment semantics — the first write of a position wins.
    """

    def __init__(self, n: int) -> None:
        self.n = int(n)
        self._rows: list[np.ndarray] = []
        self._cols: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []

    def add(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        self._rows.append(np.asarray(rows, dtype=int).ravel())
        self._cols.append(np.asarray(cols, dtype=int).ravel())
        self._vals.append(np.asarray(vals, dtype=float).ravel())

    def to_csr(self) -> sparse.csr_matrix:
        n = self.n
        if not self._rows:
            return sparse.csr_matrix((n, n))
        r = np.concatenate(self._rows)
        c = np.concatenate(self._cols)
        v = np.concatenate(self._vals)
        _, first = np.unique(r.astype(np.int64) * n + c, return_index=True)
        return sparse.coo_matrix((v[first], (r[first], c[first])), shape=(n, n)).tocsr()


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

    def threshold_fraction_of_nnz(self, keep_fraction: float) -> "SparsifiedConductance":
        """Keep (approximately) the largest ``keep_fraction`` of the entries."""
        if not 0 < keep_fraction <= 1:
            raise ValueError("keep_fraction must be in (0, 1]")
        data = np.abs(self.gw.tocoo().data)
        k = max(1, int(round(keep_fraction * data.size)))
        cutoff = np.partition(data, data.size - k)[data.size - k]
        return self.threshold(cutoff)

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
