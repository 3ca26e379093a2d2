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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..geometry.quadtree import Square, SquareHierarchy
from ..substrate.solver_base import SubstrateSolver
from .rowbasis import MultilevelRowBasis, _positions
from .sparsified import (
    ColumnAssembler,
    EntryAssembler,
    SparsifiedConductance,
    quadrant_order_key,
)

__all__ = ["LowRankSparsifier"]

SquareKey = tuple[int, int, int]


@dataclass
class _SquareBasisTU:
    """Fast-decaying (T) and slow-decaying (U) bases of one square."""

    key: SquareKey
    contact_indices: np.ndarray
    t: np.ndarray
    u: np.ndarray


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
        self._tu: dict[SquareKey, _SquareBasisTU] = {}
        self._lresp: dict[SquareKey, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # ----------------------------------------------------------------- phase 1
    def build(self, solver: SubstrateSolver) -> "LowRankSparsifier":
        """Run the coarse-to-fine sweep (all the black-box solves happen here)."""
        self.rowbasis.build(solver)
        return self

    @property
    def n_solves(self) -> int:
        return self.rowbasis.n_solves

    # ----------------------------------------------------------------- phase 2
    def _split_fast_slow(
        self, interaction: np.ndarray, n_cols: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """SVD split of an interaction matrix into slow (U) / fast (T) coefficients."""
        if interaction.size == 0:
            # nothing to separate against: keep everything as slow-decaying
            return np.eye(n_cols), np.zeros((n_cols, 0))
        _, s, vh = np.linalg.svd(interaction, full_matrices=True)
        if s.size == 0 or s[0] == 0.0:
            rank = 0
        else:
            rank = int(np.count_nonzero(s > self.sv_rel_threshold * s[0]))
            rank = min(rank, self.max_rank)
        u_coef = vh[:rank].T
        t_coef = vh[rank:].T
        return u_coef, t_coef

    def _build_fine_to_coarse(self) -> None:
        hier = self.hierarchy
        rb = self.rowbasis
        # finest level: U = row basis, T = its orthonormal complement
        for sq in hier.squares_at_level(hier.max_level):
            data = rb.data[sq.key]
            t = rb.finest_w[sq.key]
            u = data.v
            self._tu[sq.key] = _SquareBasisTU(sq.key, sq.contact_indices, t, u)
            lc, block = rb.local_blocks[sq.key]
            self._lresp[sq.key] = (lc, block @ t, block @ u)

        for level in range(hier.max_level - 1, 1, -1):
            for parent in hier.squares_at_level(level):
                self._build_parent(parent)

    def _build_parent(self, parent: Square) -> None:
        hier = self.hierarchy
        rb = self.rowbasis
        children = hier.children(parent)
        n_p = parent.contact_indices.size

        blocks: list[np.ndarray] = []
        slices: list[tuple[Square, slice]] = []
        start = 0
        for child in children:
            u_child = self._tu[child.key].u
            embed = np.zeros((n_p, u_child.shape[1]))
            rows = _positions(parent.contact_indices, child.contact_indices)
            embed[rows, :] = u_child
            blocks.append(embed)
            slices.append((child, slice(start, start + u_child.shape[1])))
            start += u_child.shape[1]
        x_p = np.hstack(blocks) if blocks else np.zeros((n_p, 0))
        m = x_p.shape[1]

        # interaction with the interactive region, through the representation
        if hier.interactive_squares(parent) and m:
            responses = rb.interaction_responses(parent, x_p)
            interaction = np.vstack([term for _, term in responses])
        else:
            interaction = np.zeros((0, m))
        u_coef, t_coef = self._split_fast_slow(interaction, m)
        t_p = x_p @ t_coef
        u_p = x_p @ u_coef
        self._tu[parent.key] = _SquareBasisTU(
            parent.key, parent.contact_indices, t_p, u_p
        )

        # local responses to the X_p columns, assembled from the children.
        # P_c of every child is the children of L_parent, so the child's row
        # map places its local and interactive squares on L_parent's contacts.
        l_contacts = hier.contacts_in(hier.local_squares(parent))
        resp_x = np.zeros((l_contacts.size, m))
        for child, cols in slices:
            cdata = rb.data[child.key]
            _, _, resp_u_child = self._lresp[child.key]
            resp_x[cdata.rows_of(hier.local_squares(child)), cols] = resp_u_child
            for d, term in rb.interaction_responses(child, self._tu[child.key].u):
                resp_x[cdata.p_rows[d.key], cols] = term
        self._lresp[parent.key] = (l_contacts, resp_x @ t_coef, resp_x @ u_coef)

    # ----------------------------------------------------------- assemble Q/Gw
    def _assemble_q(self) -> tuple[sparse.csc_matrix, dict[tuple[SquareKey, str], np.ndarray]]:
        hier = self.hierarchy
        q = ColumnAssembler(hier.layout.n_contacts)
        column_map: dict[tuple[SquareKey, str], np.ndarray] = {}

        def ordered(level: int) -> list[Square]:
            return sorted(hier.squares_at_level(level), key=lambda s: quadrant_order_key(s.key))

        # coarsest slow-decaying vectors first, then fast-decaying level by level
        for sq in ordered(2):
            tu = self._tu[sq.key]
            if tu.u.shape[1]:
                column_map[sq.key, "U"] = q.add(tu.contact_indices, tu.u)
        for level in range(2, hier.max_level + 1):
            for sq in ordered(level):
                tu = self._tu[sq.key]
                if tu.t.shape[1]:
                    column_map[sq.key, "T"] = q.add(tu.contact_indices, tu.t)
        return q.to_csc(), column_map

    def to_sparsified(self) -> SparsifiedConductance:
        """Run the fine-to-coarse sweep and return the ``Q Gw Q'`` representation."""
        if not self.rowbasis.built:
            raise RuntimeError("call build(solver) first")
        if not self._tu:
            self._build_fine_to_coarse()
        hier = self.hierarchy
        q, column_map = self._assemble_q()
        ncols = q.shape[1]

        entries = EntryAssembler(ncols)

        def record_block(row_idx: np.ndarray, col_idx: np.ndarray, block: np.ndarray) -> None:
            if row_idx.size == 0 or col_idx.size == 0:
                return
            rr, cc = np.meshgrid(row_idx, col_idx, indexing="ij")
            entries.add(rr, cc, block)
            entries.add(cc.T, rr.T, block.T)

        # fast-decaying interactions between local squares (same or finer level)
        for level in range(2, hier.max_level + 1):
            for sq in hier.squares_at_level(level):
                source_cols = column_map.get((sq.key, "T"))
                if source_cols is None or source_cols.size == 0:
                    continue
                lc, resp_t, _ = self._lresp[sq.key]
                for target in hier.target_squares(sq):
                    target_cols = column_map.get((target.key, "T"))
                    if target_cols is None or target_cols.size == 0:
                        continue
                    t_target = self._tu[target.key].t
                    pos = _positions(lc, target.contact_indices)
                    block = t_target.T @ resp_t[pos, :]
                    record_block(target_cols, source_cols, block)

        # coarsest-level slow-decaying vectors interact with everything: their
        # columns of Q go through the representation as one block
        u_blocks = [
            column_map[sq.key, "U"]
            for sq in hier.squares_at_level(2)
            if (sq.key, "U") in column_map
        ]
        if u_blocks:
            u_cols = np.concatenate(u_blocks)
            responses = self.rowbasis.apply_block(q[:, u_cols].toarray())
            gw_cols = q.T @ responses  # (ncols, r)
            all_rows = np.arange(ncols)
            for k, col in enumerate(u_cols):
                entries.add(all_rows, np.full(ncols, col), gw_cols[:, k])
                entries.add(np.full(ncols, col), all_rows, gw_cols[:, k])

        gw = entries.to_csr()
        # the exact Gw is symmetric (Section 2.4); averaging the two
        # independently approximated halves removes the small asymmetry left
        # by the representation.
        gw = 0.5 * (gw + gw.T)
        return SparsifiedConductance(
            q, gw, n_solves=self.rowbasis.n_solves, method="lowrank"
        )

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
