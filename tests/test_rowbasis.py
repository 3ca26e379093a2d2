"""Tests for the multilevel row-basis representation (Section 4.3)."""

import numpy as np
import pytest

from repro import (
    CountingSolver,
    DenseMatrixSolver,
    EigenfunctionSolver,
    SquareHierarchy,
    SubstrateProfile,
    extract_dense,
)
from repro.geometry import two_square_clusters
from repro.analysis import max_relative_error
from repro.core.rowbasis import MultilevelRowBasis, interaction_singular_values
from repro.geometry.quadtree import LevelIndex


def square_contacts(index, s):
    return index.contacts[index.contact_ptr[s] : index.contact_ptr[s + 1]]


def square_blocks(level, s):
    """``(V_s, G_{., s} V_s)`` of square ``s``, sliced out of its level's operators."""
    cols = slice(level.cols[s], level.cols[s + 1])
    v_s = level.v.tocsc()[:, cols].toarray()[square_contacts(level.index, s)]
    return v_s, (level.gi + level.gl).tocsc()[:, cols].toarray()


def reference_apply_block(rb, voltage_block):
    """``G V`` through the representation, one interactive square pair at a time.

    The straightforward form of the Section 4.3.2 product: for each
    interactive pair it reads the destination's rows of the source's stored
    responses and the source's rows of the destination's, with no use of
    the symmetry of the interaction lists.  ``apply_block`` must agree.
    """
    v = np.asarray(voltage_block, dtype=float)
    out = np.zeros_like(v)
    for level in rb.levels:
        index = level.index
        ptr, interactive = index.members["interactive"]
        for s in range(index.n_squares):
            rows_s = square_contacts(index, s)
            v_s, gv_s = square_blocks(level, s)
            x_s = v[rows_s, :]
            coeff = v_s.T @ x_s
            resid = x_s - v_s @ coeff
            for d in interactive[ptr[s] : ptr[s + 1]]:
                rows_d = square_contacts(index, d)
                v_d, gv_d = square_blocks(level, d)
                term = gv_s[rows_d] @ coeff
                if v_d.shape[1]:
                    term = term + v_d @ (gv_d[rows_s].T @ resid)
                out[rows_d, :] += term
    finest = rb.hierarchy.levels[-1]
    for s in range(finest.n_squares):
        rows_s = square_contacts(finest, s)
        out += rb.local[:, rows_s] @ v[rows_s, :]
    return out


class TestInteractionSVD:
    """Figure 4-3: well-separated interactions are numerically low-rank."""

    def test_separated_block_decays_faster_than_self_block(self, small_g, small_hierarchy):
        finest = small_hierarchy.levels[-1]
        # square 0 and the last square, which is well separated from it
        assert np.abs(finest.ij[-1] - finest.ij[0]).max() > 1
        src, far = square_contacts(finest, 0), square_contacts(finest, finest.n_squares - 1)
        s_self = interaction_singular_values(small_g, src, src)
        s_far = interaction_singular_values(small_g, src, far)
        # normalised decay: the separated block loses orders of magnitude quickly
        if s_far.size > 1 and s_self.size > 1:
            assert s_far[-1] / s_far[0] < s_self[-1] / s_self[0]

    def test_two_cluster_example_rank_deficiency(self, small_profile):
        """The 2-cluster layout of Fig. 4-2/4-3: separated block is near rank-deficient."""
        from repro import EigenfunctionSolver, extract_dense

        layout = two_square_clusters(size=64.0, n_per_cluster=9, separation_cells=3)
        solver = EigenfunctionSolver(
            layout,
            small_profile.__class__.two_layer_example(size=64.0, resistive_bottom=True),
            max_panels=64,
        )
        g = extract_dense(solver, symmetrize=True)
        src = np.arange(9)
        dst = np.arange(9, 18)
        s_self = interaction_singular_values(g, src, src)
        s_far = interaction_singular_values(g, src, dst)
        assert s_far[3] / s_far[0] < 1e-2
        assert s_self[3] / s_self[0] > 1e-2


class TestRowBasisRepresentation:
    @pytest.fixture(scope="class")
    def built(self, small_hierarchy, small_g, small_layout):
        counting = CountingSolver(DenseMatrixSolver(small_g, small_layout))
        rb = MultilevelRowBasis(small_hierarchy, max_rank=6, seed=1)
        rb.build(counting)
        return rb, counting

    def test_apply_accuracy(self, built, small_g):
        rb, _ = built
        approx = rb.to_dense()
        assert max_relative_error(approx, small_g) < 0.10

    def test_apply_matches_apply_block(self, built, rng):
        rb, _ = built
        v = rng.standard_normal(rb.hierarchy.layout.n_contacts)
        assert np.allclose(rb.apply(v), rb.apply_block(v[:, None])[:, 0])

    def test_rank_capped(self, built):
        rb, _ = built
        assert all(np.diff(level.cols).max() <= 6 for level in rb.levels)

    def test_solve_count_recorded(self, built):
        rb, counting = built
        assert rb.n_solves == counting.solve_count
        assert rb.n_solves > 0

    def test_rebuild_replaces_the_representation(self, small_hierarchy, small_g, small_layout, rng):
        solver = DenseMatrixSolver(small_g, small_layout)
        once = MultilevelRowBasis(small_hierarchy, max_rank=6, seed=1).build(solver)
        twice = MultilevelRowBasis(small_hierarchy, max_rank=6, seed=1).build(solver)
        twice.rng = np.random.default_rng(1)  # the second build draws the same samples
        twice.build(solver)
        assert len(twice.levels) == len(once.levels)
        block = rng.standard_normal((small_g.shape[0], 4))
        assert np.array_equal(twice.apply_block(block), once.apply_block(block))

    def test_apply_before_build_raises(self, small_hierarchy):
        rb = MultilevelRowBasis(small_hierarchy)
        with pytest.raises(RuntimeError):
            rb.apply(np.zeros(small_hierarchy.layout.n_contacts))

    def test_row_basis_orthonormal(self, built):
        rb, _ = built
        for level in rb.levels:
            # block-diagonal: every square's V_s is orthonormal on its own contacts
            gram = (level.v.T @ level.v).toarray()
            assert np.allclose(gram, np.eye(level.v.shape[1]), atol=1e-10)

    def test_linearity_of_apply(self, built, rng):
        rb, _ = built
        n = rb.hierarchy.layout.n_contacts
        v1, v2 = rng.standard_normal(n), rng.standard_normal(n)
        lhs = rb.apply(2.0 * v1 - 0.5 * v2)
        rhs = 2.0 * rb.apply(v1) - 0.5 * rb.apply(v2)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_row_maps_locate_member_squares(self, built):
        """Each square's responses sit on exactly P_s: gi on I_s, gl on L_s."""
        rb, _ = built
        for level in rb.levels:
            index = level.index
            gi, gl = level.gi.tocsc(), level.gl.tocsc()
            for s in range(index.n_squares):
                for stored, relation in ((gi, "interactive"), (gl, "local")):
                    ptr, members = index.members[relation]
                    rows = np.unique(stored[:, level.cols[s] : level.cols[s + 1]].nonzero()[0])
                    want = np.sort(index.contacts_of(members[ptr[s] : ptr[s + 1]]))
                    assert np.array_equal(rows, want if level.cols[s + 1] > level.cols[s] else [])

    def test_apply_block_matches_per_pair_reference(self, built, small_g, rng):
        rb, _ = built
        block = rng.standard_normal((small_g.shape[0], 5))
        for v in (block, np.eye(small_g.shape[0])):
            diff = np.abs(rb.apply_block(v) - reference_apply_block(rb, v)).max()
            assert diff <= 1e-12 * np.abs(small_g).max()

    def test_apply_block_makes_no_position_search(self, built, monkeypatch, rng):
        """The product reads only the stacked operators: no square is visited."""
        rb, _ = built
        block = rng.standard_normal((rb.hierarchy.layout.n_contacts, 3))
        want = rb.apply_block(block)

        def refuse(*_args):
            raise AssertionError("apply_block looked up the hierarchy")

        monkeypatch.setattr(rb.hierarchy, "levels", None)
        for name in ("contacts_of", "related_squares", "rows", "is_local"):
            monkeypatch.setattr(LevelIndex, name, refuse)
        assert np.array_equal(rb.apply_block(block), want)

    def test_apply_block_rejects_wrong_row_count(self, built):
        rb, _ = built
        with pytest.raises(ValueError, match="expected 64 rows"):
            rb.apply_block(np.ones((69, 2)))
        with pytest.raises(ValueError, match="expected 64 rows"):
            rb.apply(np.ones(60))


class TestSparseLayout:
    """Two clusters far apart: most squares are empty and, once the clusters
    are decoupled, the finest squares' sampled interactions vanish (rank 0)."""

    @pytest.fixture(scope="class")
    def decoupled(self):
        layout = two_square_clusters(size=64.0, n_per_cluster=9, separation_cells=3)
        profile = SubstrateProfile.two_layer_example(size=64.0, resistive_bottom=True)
        g = extract_dense(EigenfunctionSolver(layout, profile, max_panels=64), symmetrize=True)
        first, second = np.arange(9), np.arange(9, 18)
        g[np.ix_(first, second)] = 0.0
        g[np.ix_(second, first)] = 0.0
        hier = SquareHierarchy(layout, max_level=3)
        rb = MultilevelRowBasis(hier, max_rank=6, seed=1).build(DenseMatrixSolver(g, layout))
        return rb, g

    def test_layout_has_empty_and_rank_zero_squares(self, decoupled):
        rb, _ = decoupled
        all_squares = sum(4**level for level in range(2, rb.hierarchy.max_level + 1))
        ranks = np.concatenate([np.diff(level.cols) for level in rb.levels])
        assert ranks.size < all_squares
        assert np.any(ranks == 0)
        assert np.any(ranks > 0)

    def test_apply_block_matches_per_pair_reference(self, decoupled, rng):
        rb, g = decoupled
        for v in (rng.standard_normal((g.shape[0], 4)), np.eye(g.shape[0])):
            diff = np.abs(rb.apply_block(v) - reference_apply_block(rb, v)).max()
            assert diff <= 1e-12 * np.abs(g).max()
