"""Multilevel row-basis representation of the conductance matrix (Section 4.3).

The coarse-to-fine sweep of the low-rank method builds, for every square
``s`` of the hierarchy, a small orthonormal *row basis* ``V_s`` (at most
``max_rank`` columns) such that the interaction of ``s`` with its interactive
region is captured by the responses ``G_{P_s, s} V_s`` (``P_s`` = interactive
plus local squares).  The row basis is obtained from the SVD of *sampled*
interactions — one random sample vector per square, shared between all the
squares whose interaction lists contain it — so the whole construction needs
only ``O(log n)`` black-box solves thanks to the combine-solves technique of
Section 3.5, refined by the symmetry trick of eq. (4.24).

The representation is held per level, stacked over the level's squares
(:class:`RowBasisLevel`): the block-diagonal ``V_l`` (each square's row basis
on its own contacts) and the responses ``G V_l``, split into ``GI_l`` (rows
of each square's interactive contacts) and ``GL_l`` (rows of its local
contacts), plus one finest-level local operator ``L``.  Every step of the
sweep is a few sparse products per level over the index arrays the
hierarchy built for that level (:class:`~repro.geometry.quadtree.LevelIndex`:
each square's contacts and its ``L_s``, ``I_s`` and ``P_s``), and the
per-square SVDs run batched by shape.  As interaction lists are symmetric,
the ``O(n log n)`` product of Section 4.3.2 is

    ``G x ~ L x + sum_l [GI_l (V_l' x) + V_l (GI_l' (x - V_l V_l' x))]``,

and the representation is the input to the fine-to-coarse sweep of
:mod:`repro.core.lowrank`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..geometry.quadtree import LevelIndex, SquareHierarchy
from ..substrate.solver_base import SubstrateSolver
from .sparsified import block_columns, block_entries, block_stacks, shape_groups

__all__ = ["RowBasisLevel", "MultilevelRowBasis", "interaction_singular_values"]


def interaction_singular_values(
    g: np.ndarray, source: np.ndarray, destination: np.ndarray
) -> np.ndarray:
    """Singular values of the matrix section ``G(destination, source)``.

    Used for Figure 4-3: the self-interaction of a square of contacts has
    slowly decaying singular values while the interaction with a
    well-separated square decays very fast.
    """
    block = np.asarray(g, dtype=float)[np.ix_(destination, source)]
    return np.linalg.svd(block, compute_uv=False)


def _first_appearance(codes: np.ndarray) -> np.ndarray:
    """Group of every code, groups numbered in order of first appearance."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse.ravel()]


@dataclass
class RowBasisLevel:
    """The row-basis representation of one level, stacked over its squares.

    Square ``s`` owns columns ``cols[s]:cols[s + 1]`` of the three ``n x R``
    operators: ``v`` holds ``V_s`` on its contacts, ``gi`` holds
    ``G_{I_s, s} V_s`` on its interactive contacts and ``gl`` holds
    ``G_{L_s, s} V_s`` on its local contacts.
    """

    index: LevelIndex
    cols: np.ndarray
    v: sparse.csr_matrix
    gi: sparse.csr_matrix
    gl: sparse.csr_matrix

    def interactive(self, block):
        """``G_{I_s, s} x_s`` of every square ``s``, summed over the squares.

        A column of ``block`` may live on one square (that square's
        interaction) or anywhere (this level's share of ``G x``).  Evaluated
        with the symmetry refinement
        ``(G_ds V_s)(V_s' x) + V_d (G_sd V_d)' (x - V_s V_s' x)``.
        """
        coeff = self.v.T @ block
        return self.gi @ coeff + self.v @ (self.gi.T @ (block - self.v @ coeff))


class MultilevelRowBasis:
    """Coarse-to-fine construction of the multilevel row-basis representation.

    Parameters
    ----------
    hierarchy:
        Multilevel square hierarchy.
    max_rank:
        Maximum number of row-basis vectors kept per square (the paper uses 6).
    sv_rel_threshold:
        Relative singular-value cut: singular values larger than this fraction
        of the largest are considered "large" (the paper uses 1/100).
    seed:
        Seed of the random sample vectors.
    max_block:
        Largest number of right-hand sides submitted to the black box per
        ``solve_many`` call (memory bound; does not change the attributed
        solve count).
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
        self.max_block = max(int(max_block), 1)
        self.rng = np.random.default_rng(seed)
        #: levels 2 .. max_level, coarsest first
        self.levels: list[RowBasisLevel] = []
        #: finest-level local operator: G_{L_s, s} of every finest square s
        self.local: sparse.csr_matrix | None = None
        #: orthonormal complements W_s of the finest row bases, and their column pointer
        self.finest_w: tuple[sparse.csc_matrix, np.ndarray] | None = None
        self.n_solves = 0
        self.built = False

    # ------------------------------------------------------------------ build
    def build(self, solver: SubstrateSolver) -> "MultilevelRowBasis":
        """Run the coarse-to-fine sweep using the black-box ``solver``."""
        n = self.hierarchy.layout.n_contacts
        self.levels = []  # a rebuild replaces the representation
        for level in range(2, self.hierarchy.max_level + 1):
            index = self.hierarchy.levels[level]
            squares = np.arange(index.n_squares)
            # one random sample per square, drawn square after square
            samples = sparse.csc_matrix(
                (self.rng.standard_normal(n), index.contacts, index.contact_ptr),
                shape=(n, squares.size),
            )
            bases = self._row_bases(index, self._responses(index, samples, squares, None, solver))
            v, cols = block_columns(bases, index.contact_ptr, index.contacts, n)
            col_square = np.repeat(squares, np.diff(cols))
            col_local = np.arange(cols[-1]) - cols[col_square]
            resp = self._responses(index, v.tocsc(), col_square, col_local, solver).tocoo()
            local = index.is_local(resp.row, col_square[resp.col])
            gi, gl = (
                sparse.csr_matrix((resp.data[m], (resp.row[m], resp.col[m])), shape=resp.shape)
                for m in (~local, local)
            )
            self.levels.append(RowBasisLevel(index, cols, v, gi, gl))
        self._build_finest_local(solver, bases)
        self.built = True
        return self

    # ------------------------------------------------------- response machinery
    def _solve(self, solver: SubstrateSolver, columns: sparse.csc_matrix) -> np.ndarray:
        """Black-box responses to ``columns``, ``max_block`` columns per call."""
        out = np.empty(columns.shape)
        for start in range(0, columns.shape[1], self.max_block):
            block = slice(start, start + self.max_block)
            out[:, block] = solver.solve_many(np.ascontiguousarray(columns[:, block].toarray()))
            self.n_solves += out[:, block].shape[1]
        return out

    def _responses(
        self,
        index: LevelIndex,
        vectors: sparse.csc_matrix,
        col_square: np.ndarray,
        col_local: np.ndarray | None,
        solver: SubstrateSolver,
    ) -> sparse.csr_matrix:
        """Approximate ``G_{P_s, s} x`` for vectors ``x`` living on one square each.

        Column ``c`` of ``vectors`` lives on square ``col_square[c]`` and is
        that square's vector ``col_local[c]`` (``None``: its only one).  On
        the coarsest useful level (2) each column is one direct black-box
        solve; on finer levels the splitting of Section 4.3.3 is used: the
        parent row-basis part from the stored responses, and the part
        orthogonal to it from combined solves refined via eq. (4.24).
        """
        rows, indptr = index.rows("p", col_square)
        entry_col = np.repeat(np.arange(col_square.size), np.diff(indptr))
        if index.level == 2:
            y = self._solve(solver, vectors)
            resp = sparse.csc_matrix((y[rows, entry_col], rows, indptr), shape=vectors.shape)
            return resp.tocsr()
        parent = self.levels[-1]
        coeff = parent.v.T @ vectors
        ortho = vectors - parent.v @ coeff
        # one combined solve per (parent class mod 3, child position, vector):
        # the members' parents are three squares apart, so each response is
        # attributed to its own source.  Eq. (4.24): on each square q of
        # L_parent only the part orthogonal to V_q comes from the combined
        # solve; the row-basis part is G_{parent, q} V_q by symmetry, read
        # from q's stored responses
        i, j = index.ij[col_square].T
        vector = np.zeros_like(col_square) if col_local is None else col_local
        klass = (((i // 2 % 3) * 3 + j // 2 % 3) * 2 + i % 2) * 2 + j % 2
        group = _first_appearance(klass * (int(vector.max(initial=0)) + 1) + vector)
        y_perp = self._combined_solves(solver, ortho, group, parent)
        raw = sparse.csc_matrix((y_perp[rows, group[entry_col]], rows, indptr), shape=vectors.shape)
        return (parent.gl @ coeff + (parent.v @ (parent.gl.T @ ortho) + raw)).tocsr()

    def _combined_solves(
        self, solver: SubstrateSolver, vectors, group: np.ndarray, level: RowBasisLevel
    ) -> np.ndarray:
        """One black-box solve per group of ``vectors``, projected off ``level``'s bases.

        Column ``c`` of ``vectors`` joins the combined solve ``group[c]``; the
        members of a group have disjoint supports, so each theta is exactly
        the sum of its members.  Returns the responses minus their part in
        each square's row basis (the part eq. (4.24) takes from the solve).
        """
        membership = sparse.csr_matrix(
            (np.ones(group.size), (np.arange(group.size), group)),
            shape=(group.size, group.max(initial=-1) + 1),
        )
        y = self._solve(solver, (vectors @ membership).tocsc())
        return y - level.v @ (level.v.T @ y)

    # --------------------------------------------------------------- row bases
    def _row_bases(self, index: LevelIndex, sample_resp: sparse.csr_matrix) -> list[np.ndarray]:
        """Each square's row basis from its sampled interactions.

        The samples of the squares in ``I_s`` respond on ``s``'s contacts;
        ``V_s`` is their left singular vectors with large singular values,
        at most ``max_rank`` of them.
        """
        sizes = np.diff(index.contact_ptr)
        ptr, interactive = index.members["interactive"]
        # square s's sampled block: its contacts x its interaction list
        block, r, c = block_entries(sizes, np.diff(ptr))
        sample_resp.sum_duplicates()
        values = np.asarray(
            sample_resp[index.contacts[index.contact_ptr[block] + r], interactive[ptr[block] + c]]
        ).ravel()
        bases: list[np.ndarray] = [np.zeros((0, 0))] * sizes.size
        for ids, stack in block_stacks(values, sizes, np.diff(ptr)):
            n_s, m_s = stack.shape[1:]
            if m_s == 0:
                # no interactive contacts: keep the whole (small) space
                for s in ids:
                    bases[s] = np.eye(n_s)[:, : min(self.max_rank, n_s)]
                continue
            u, sv, _ = np.linalg.svd(stack, full_matrices=False)
            for s, u_s, sv_s in zip(ids, u, sv):
                large = np.count_nonzero(sv_s > self.sv_rel_threshold * sv_s[0])
                rank = min(int(large), self.max_rank, n_s) if sv_s[0] != 0.0 else 0
                bases[s] = u_s[:, :rank]
        return bases

    # -------------------------------------------------- finest local interactions
    def _build_finest_local(self, solver: SubstrateSolver, bases: list[np.ndarray]) -> None:
        """The local operator ``L``: ``G_{L_s, s}`` of every finest square ``s``.

        ``G_{L_s, s} = (G_{L_s, s} V_s) V_s' + (G_{L_s, s} W_s) W_s'`` with
        ``W_s`` the orthonormal complement of ``V_s``.  The first term is
        stored; the second comes from combined solves of the ``W_s`` columns
        (squares three apart share a solve), refined via eq. (4.24).
        """
        n = self.hierarchy.layout.n_contacts
        top = self.levels[-1]
        index = top.index
        complements: list[np.ndarray] = [np.zeros((0, 0))] * len(bases)
        for ids, n_s, k in shape_groups(np.diff(index.contact_ptr), np.diff(top.cols)):
            if k == 0 or k >= n_s:
                for s in ids:
                    complements[s] = np.eye(n_s)[:, k:]
                continue
            # Householder QR of [V_s, I]: its trailing columns span the complement
            spanned = np.stack([bases[s] for s in ids])
            identity = np.broadcast_to(np.eye(n_s), (ids.size, n_s, n_s))
            q, _ = np.linalg.qr(np.concatenate([spanned, identity], axis=2))
            for s, q_s in zip(ids, q):
                complements[s] = q_s[:, k:n_s]
        w, w_cols = block_columns(complements, index.contact_ptr, index.contacts, n)
        w = w.tocsc()
        self.finest_w = (w, w_cols)
        col_square = np.repeat(np.arange(len(bases)), np.diff(w_cols))
        vector = np.arange(w_cols[-1]) - w_cols[col_square]
        i, j = index.ij[col_square].T
        klass = (i % 3) * 3 + j % 3
        group = _first_appearance(klass * (int(vector.max(initial=0)) + 1) + vector)
        y_perp = self._combined_solves(solver, w, group, top)
        rows, indptr = index.rows("local", col_square)
        entry_col = np.repeat(np.arange(col_square.size), np.diff(indptr))
        raw = sparse.csc_matrix((y_perp[rows, group[entry_col]], rows, indptr), shape=w.shape)
        resp_w = top.v @ (top.gl.T @ w) + raw
        self.local = (top.gl @ top.v.T + resp_w @ w.T).tocsr()

    # ------------------------------------------------------------------- apply
    def apply(self, voltages: np.ndarray) -> np.ndarray:
        """Approximate ``G @ voltages`` using the representation (Section 4.3.2)."""
        return self.apply_block(np.asarray(voltages, dtype=float)[:, None])[:, 0]

    def apply_block(self, voltage_block: np.ndarray) -> np.ndarray:
        """Approximate ``G @ V`` for several voltage vectors at once."""
        if not self.built:
            raise RuntimeError("call build() before apply()")
        v = np.asarray(voltage_block, dtype=float)
        n = self.hierarchy.layout.n_contacts
        if v.ndim != 2 or v.shape[0] != n:
            raise ValueError(
                f"voltage block of shape {v.shape}: expected {n} rows, one per contact"
            )
        out = self.local @ v
        for level in self.levels:
            out += level.interactive(v)
        return out

    def to_dense(self) -> np.ndarray:
        """Dense matrix represented by the row-basis approximation (tests only)."""
        n = self.hierarchy.layout.n_contacts
        return self.apply_block(np.eye(n))
