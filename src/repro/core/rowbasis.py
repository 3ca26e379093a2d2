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

The finished representation supports an ``O(n log n)`` approximate
matrix-vector product with ``G`` (Section 4.3.2) and is the input to the
fine-to-coarse sweep of :mod:`repro.core.lowrank`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..geometry.quadtree import Square, SquareHierarchy
from ..substrate.solver_base import SubstrateSolver

__all__ = ["RowBasisData", "MultilevelRowBasis", "interaction_singular_values"]

SquareKey = tuple[int, int, int]


def _positions(superset: np.ndarray, subset: np.ndarray) -> np.ndarray:
    """Positions of ``subset`` entries inside the sorted array ``superset``."""
    pos = np.searchsorted(superset, subset)
    if pos.size and (pos.max(initial=0) >= superset.size or np.any(superset[pos] != subset)):
        raise ValueError("subset contains indices not present in superset")
    return pos


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


@dataclass
class RowBasisData:
    """Row basis and responses for one square.

    Attributes
    ----------
    contact_indices:
        Contacts of the square (length ``n_s``).
    v:
        Orthonormal row basis (``n_s x k_s``).
    p_contacts:
        Sorted contacts of ``P_s`` (interactive plus local squares).
    gv_p:
        Approximate responses ``G_{P_s, s} V_s`` (``|P_s| x k_s``).
    p_rows:
        Rows of ``p_contacts`` occupied by each member square of ``P_s``,
        fixed when ``P_s`` is formed (index bookkeeping, not stored values).
    """

    key: SquareKey
    contact_indices: np.ndarray
    v: np.ndarray
    p_contacts: np.ndarray
    gv_p: np.ndarray
    p_rows: dict[SquareKey, np.ndarray]

    @property
    def rank(self) -> int:
        return self.v.shape[1]

    def rows_of(self, squares: Iterable[Square]) -> np.ndarray:
        """Ascending rows of ``p_contacts`` held by member squares of ``P_s``."""
        return np.sort(np.concatenate([self.p_rows[q.key] for q in squares]))


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
        self.data: dict[SquareKey, RowBasisData] = {}
        #: finest-level local interaction blocks: key -> (local contacts, block)
        self.local_blocks: dict[SquareKey, tuple[np.ndarray, np.ndarray]] = {}
        #: orthonormal complements of the finest-level row bases
        self.finest_w: dict[SquareKey, np.ndarray] = {}
        self.n_solves = 0
        self.built = False

    # ------------------------------------------------------------------ build
    def build(self, solver: SubstrateSolver) -> "MultilevelRowBasis":
        """Run the coarse-to-fine sweep using the black-box ``solver``."""
        hier = self.hierarchy
        for level in range(2, hier.max_level + 1):
            squares = list(hier.squares_at_level(level))
            if not squares:
                continue
            for sq in squares:
                self.data[sq.key] = self._empty_data(sq)
            samples = {
                sq.key: self.rng.standard_normal((sq.n_contacts, 1)) for sq in squares
            }
            sample_resp = self._responses(level, samples, solver)
            self._build_row_bases(level, sample_resp)
            basis_vectors = {
                sq.key: self.data[sq.key].v for sq in squares if self.data[sq.key].rank
            }
            basis_resp = self._responses(level, basis_vectors, solver)
            for key, resp in basis_resp.items():
                self.data[key].gv_p = resp
        self._build_finest_local_blocks(solver)
        self.built = True
        return self

    def _empty_data(self, square: Square) -> RowBasisData:
        """Rank-0 row basis of ``square`` with ``P_s`` and its row map fixed."""
        members = self.hierarchy.interactive_and_local(square)
        pc = self.hierarchy.contacts_in(members)
        # one validated search for all members, split back per square
        rows = _positions(pc, np.concatenate([q.contact_indices for q in members]))
        splits = np.cumsum([q.n_contacts for q in members])[:-1]
        return RowBasisData(
            square.key,
            square.contact_indices,
            np.zeros((square.n_contacts, 0)),
            pc,
            np.zeros((pc.size, 0)),
            dict(zip([q.key for q in members], np.split(rows, splits))),
        )

    # ------------------------------------------------------- response machinery
    def _responses(
        self,
        level: int,
        vectors: dict[SquareKey, np.ndarray],
        solver: SubstrateSolver,
    ) -> dict[SquareKey, np.ndarray]:
        """Approximate ``G_{P_s, s} X_s`` for vectors ``X_s`` supported on each square.

        On the coarsest useful level (2) the responses are obtained with one
        direct black-box call per column; on finer levels the splitting of
        Section 4.3.3 (parent row-basis part + combine-solves for the rest,
        refined via eq. 4.24) is used.
        """
        if level == 2:
            return self._responses_direct(level, vectors, solver)
        return self._responses_split(level, vectors, solver)

    def _responses_direct(
        self,
        level: int,
        vectors: dict[SquareKey, np.ndarray],
        solver: SubstrateSolver,
    ) -> dict[SquareKey, np.ndarray]:
        hier = self.hierarchy
        n = hier.layout.n_contacts
        # one RHS column per (square, sample column), submitted in one block
        rhs_cols: list[np.ndarray] = []
        col_owner: list[tuple[SquareKey, int]] = []
        out: dict[SquareKey, np.ndarray] = {}
        for sq in hier.squares_at_level(level):
            x = vectors.get(sq.key)
            if x is None:
                continue
            out[sq.key] = np.empty((self.data[sq.key].p_contacts.size, x.shape[1]))
            for col in range(x.shape[1]):
                full = np.zeros(n)
                full[sq.contact_indices] = x[:, col]
                rhs_cols.append(full)
                col_owner.append((sq.key, col))
        for start in range(0, len(rhs_cols), self.max_block):
            stop = min(start + self.max_block, len(rhs_cols))
            responses = solver.solve_many(np.column_stack(rhs_cols[start:stop]))
            self.n_solves += stop - start
            for pos in range(stop - start):
                key, col = col_owner[start + pos]
                out[key][:, col] = responses[self.data[key].p_contacts, pos]
        return out

    def _responses_split(
        self,
        level: int,
        vectors: dict[SquareKey, np.ndarray],
        solver: SubstrateSolver,
    ) -> dict[SquareKey, np.ndarray]:
        hier = self.hierarchy
        n = hier.layout.n_contacts
        squares = [
            sq
            for sq in hier.squares_at_level(level)
            if sq.key in vectors and vectors[sq.key].shape[1] > 0
        ]
        results: dict[SquareKey, np.ndarray] = {}
        ortho: dict[SquareKey, np.ndarray] = {}
        parent_of: dict[SquareKey, Square] = {}

        for sq in squares:
            parent = hier.parent(sq)
            pdata = self.data[parent.key]
            x = vectors[sq.key]
            x_parent = np.zeros((parent.contact_indices.size, x.shape[1]))
            rows = _positions(parent.contact_indices, sq.contact_indices)
            x_parent[rows, :] = x
            coeff = pdata.v.T @ x_parent
            resid = x_parent - pdata.v @ coeff
            # P_s is the children of L_parent, so its contacts are exactly the
            # rows L_parent holds in the parent's P
            pos = pdata.rows_of(hier.local_squares(parent))
            results[sq.key] = pdata.gv_p[pos, :] @ coeff
            ortho[sq.key] = resid
            parent_of[sq.key] = parent

        # combine-solves for the parts orthogonal to the parent row bases
        groups: dict[tuple[int, int, int, int, int], list[SquareKey]] = {}
        for sq in squares:
            parent = parent_of[sq.key]
            for col in range(ortho[sq.key].shape[1]):
                gkey = (parent.i % 3, parent.j % 3, sq.i % 2, sq.j % 2, col)
                groups.setdefault(gkey, []).append(sq.key)

        # every group is one combined solve; submit them all in one block
        def contribution(key: SquareKey, col: int) -> tuple[np.ndarray, np.ndarray]:
            return parent_of[key].contact_indices, ortho[key][:, col]

        for gkey, members, y in self._combined_group_responses(
            solver, n, list(groups.items()), contribution
        ):
            col = gkey[-1]
            for key in members:
                parent = parent_of[key]
                o = ortho[key][:, col]
                contrib = np.zeros(n)
                for q in hier.local_squares(parent):
                    qdata = self.data[q.key]
                    raw = y[q.contact_indices]
                    contrib[q.contact_indices] = self._refine_local_response(qdata, parent, o, raw)
                results[key][:, col] += contrib[self.data[key].p_contacts]
        return results

    def _combined_group_responses(
        self,
        solver: SubstrateSolver,
        n: int,
        group_list: list[tuple[tuple, list[SquareKey]]],
        contribution,
    ):
        """Run all combined solves of ``group_list`` as one ``solve_many`` block.

        Each group ``(gkey, members)`` becomes one theta column assembled by
        summing ``contribution(member_key, gkey[-1]) -> (contact_indices,
        values)`` over its members; yields ``(gkey, members, response_column)``
        per group.  One attributed black-box solve per group, exactly as the
        sequential combine-solves technique of Section 3.5; submissions are
        chunked to ``max_block`` columns to bound memory.
        """
        for start in range(0, len(group_list), self.max_block):
            chunk = group_list[start:start + self.max_block]
            thetas = np.zeros((n, len(chunk)))
            for g_idx, (gkey, members) in enumerate(chunk):
                col = gkey[-1]
                for key in members:
                    indices, values = contribution(key, col)
                    thetas[indices, g_idx] += values
            responses = solver.solve_many(thetas)
            self.n_solves += len(chunk)
            for g_idx, (gkey, members) in enumerate(chunk):
                yield gkey, members, responses[:, g_idx]

    def _refine_local_response(
        self,
        qdata: RowBasisData,
        source_square: Square,
        source_vector: np.ndarray,
        raw_response: np.ndarray,
    ) -> np.ndarray:
        """Eq. (4.24): split the response at ``q`` into row-basis and orthogonal parts.

        The row-basis part is reconstructed exactly from the stored responses
        (``G_{source, q} V_q`` by symmetry of ``G``); only the part orthogonal
        to ``V_q`` is taken from the (possibly contaminated) combined solve.
        """
        if qdata.rank == 0:
            return raw_response
        # responses of V_q at the source square
        g_sq_vq = qdata.gv_p[qdata.p_rows[source_square.key], :]
        term1 = qdata.v @ (g_sq_vq.T @ source_vector)
        term2 = raw_response - qdata.v @ (qdata.v.T @ raw_response)
        return term1 + term2

    # --------------------------------------------------------------- row bases
    def _truncated_basis(self, matrix: np.ndarray) -> np.ndarray:
        """Left singular vectors with large singular values (capped at max_rank)."""
        if matrix.size == 0:
            return np.zeros((matrix.shape[0], 0))
        u, s, _ = np.linalg.svd(matrix, full_matrices=False)
        if s.size == 0 or s[0] == 0.0:
            return np.zeros((matrix.shape[0], 0))
        rank = int(np.count_nonzero(s > self.sv_rel_threshold * s[0]))
        rank = min(rank, self.max_rank, matrix.shape[0])
        return u[:, :rank]

    def _build_row_bases(self, level: int, sample_resp: dict[SquareKey, np.ndarray]) -> None:
        hier = self.hierarchy
        for sq in hier.squares_at_level(level):
            columns = [
                sample_resp[d.key][self.data[d.key].p_rows[sq.key], :]
                for d in hier.interactive_squares(sq)
                if d.key in sample_resp
            ]
            if columns:
                sampled = np.hstack(columns)
                v = self._truncated_basis(sampled)
            else:
                # no interactive contacts: keep the whole (small) space
                k = min(self.max_rank, sq.n_contacts)
                v = np.eye(sq.n_contacts)[:, :k]
            self.data[sq.key].v = v

    # -------------------------------------------------- finest local interactions
    def _orthonormal_complement(self, v: np.ndarray, dim: int) -> np.ndarray:
        """Orthonormal basis of the complement of ``span(v)`` in ``R^dim``."""
        if v.shape[1] >= dim:
            return np.zeros((dim, 0))
        if v.shape[1] == 0:
            return np.eye(dim)
        full = np.hstack([v, np.eye(dim)])
        q, _ = np.linalg.qr(full)
        return q[:, v.shape[1]: dim]

    def _build_finest_local_blocks(self, solver: SubstrateSolver) -> None:
        hier = self.hierarchy
        n = hier.layout.n_contacts
        level = hier.max_level
        squares = list(hier.squares_at_level(level))
        # responses of the complement vectors, on the rows of P_s
        w_resp: dict[SquareKey, np.ndarray] = {}

        for sq in squares:
            rb = self.data[sq.key]
            self.finest_w[sq.key] = self._orthonormal_complement(rb.v, sq.n_contacts)
            w_resp[sq.key] = np.zeros((rb.p_contacts.size, self.finest_w[sq.key].shape[1]))

        groups: dict[tuple[int, int, int], list[SquareKey]] = {}
        for sq in squares:
            for col in range(self.finest_w[sq.key].shape[1]):
                groups.setdefault((sq.i % 3, sq.j % 3, col), []).append(sq.key)

        square_by_key = {sq.key: sq for sq in squares}

        def contribution(key: SquareKey, col: int) -> tuple[np.ndarray, np.ndarray]:
            return square_by_key[key].contact_indices, self.finest_w[key][:, col]

        for gkey, members, y in self._combined_group_responses(
            solver, n, list(groups.items()), contribution
        ):
            col = gkey[-1]
            for key in members:
                sq = square_by_key[key]
                w_col = self.finest_w[key][:, col]
                p_rows = self.data[key].p_rows
                for q in hier.local_squares(sq):
                    qdata = self.data[q.key]
                    raw = y[q.contact_indices]
                    refined = self._refine_local_response(qdata, sq, w_col, raw)
                    w_resp[key][p_rows[q.key], col] = refined

        for sq in squares:
            rb = self.data[sq.key]
            pos = rb.rows_of(hier.local_squares(sq))
            block = rb.gv_p[pos, :] @ rb.v.T
            w = self.finest_w[sq.key]
            if w.shape[1]:
                block = block + w_resp[sq.key][pos, :] @ w.T
            self.local_blocks[sq.key] = (rb.p_contacts[pos], block)

    # ------------------------------------------------------------------- apply
    def apply(self, voltages: np.ndarray) -> np.ndarray:
        """Approximate ``G @ voltages`` using the representation (Section 4.3.2)."""
        return self.apply_block(np.asarray(voltages, dtype=float)[:, None])[:, 0]

    def interaction_responses(
        self, square: Square, block: np.ndarray
    ) -> list[tuple[Square, np.ndarray]]:
        """``(d, G_{d, square} block)`` for every interactive square ``d``.

        Evaluated through the representation with the symmetry refinement:
        ``(G_ds V_s)(V_s' x) + V_d (G_sd V_d)' (x - V_s V_s' x)``.
        """
        sd = self.data[square.key]
        coeff = sd.v.T @ block
        resid = block - sd.v @ coeff
        out = []
        for d in self.hierarchy.interactive_squares(square):
            dd = self.data[d.key]
            term = sd.gv_p[sd.p_rows[d.key], :] @ coeff
            if dd.rank:
                term = term + dd.v @ (dd.gv_p[dd.p_rows[square.key], :].T @ resid)
            out.append((d, term))
        return out

    def apply_block(self, voltage_block: np.ndarray) -> np.ndarray:
        """Approximate ``G @ V`` for several voltage vectors at once."""
        if not self.built:
            raise RuntimeError("call build() before apply()")
        hier = self.hierarchy
        v = np.asarray(voltage_block, dtype=float)
        n = hier.layout.n_contacts
        if v.ndim != 2 or v.shape[0] != n:
            raise ValueError(
                f"voltage block of shape {v.shape}: expected {n} rows, one per contact"
            )
        out = np.zeros_like(v)
        for level in range(2, hier.max_level + 1):
            for sq in hier.squares_at_level(level):
                for d, term in self.interaction_responses(sq, v[sq.contact_indices, :]):
                    out[d.contact_indices, :] += term
        for sq in hier.squares_at_level(hier.max_level):
            lc, block = self.local_blocks[sq.key]
            out[lc, :] += block @ v[sq.contact_indices, :]
        return out

    def to_dense(self) -> np.ndarray:
        """Dense matrix represented by the row-basis approximation (tests only)."""
        n = self.hierarchy.layout.n_contacts
        return self.apply_block(np.eye(n))

    # ------------------------------------------------------------------ report
    def storage_nonzeros(self) -> int:
        """Number of stored floating-point values (memory cost of Section 4.3)."""
        total = 0
        for rb in self.data.values():
            total += rb.v.size + rb.gv_p.size
        for _, block in self.local_blocks.values():
            total += block.size
        return total
