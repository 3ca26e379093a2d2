"""Tests for the multilevel row-basis representation (Section 4.3)."""

import numpy as np
import pytest

import repro.core.rowbasis as rowbasis_module
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
from repro.core.rowbasis import MultilevelRowBasis, _positions, interaction_singular_values


def reference_apply_block(rb, voltage_block):
    """``G V`` through the representation, searching every square pair's rows.

    The straightforward form of the Section 4.3.2 product: for each
    interactive pair it locates the destination's rows in ``P_s`` and the
    source's rows in ``P_d`` on every call.  ``apply_block`` must agree.
    """
    hier = rb.hierarchy
    v = np.asarray(voltage_block, dtype=float)
    out = np.zeros_like(v)
    for level in range(2, hier.max_level + 1):
        for sq in hier.squares_at_level(level):
            sd = rb.data[sq.key]
            v_s = v[sq.contact_indices, :]
            coeff = sd.v.T @ v_s
            resid = v_s - sd.v @ coeff
            for d in hier.interactive_squares(sq):
                dd = rb.data[d.key]
                pos_d = _positions(sd.p_contacts, d.contact_indices)
                term = sd.gv_p[pos_d, :] @ coeff
                if dd.rank:
                    pos_s = _positions(dd.p_contacts, sq.contact_indices)
                    term = term + dd.v @ (dd.gv_p[pos_s, :].T @ resid)
                out[d.contact_indices, :] += term
    for sq in hier.squares_at_level(hier.max_level):
        lc, block = rb.local_blocks[sq.key]
        out[lc, :] += block @ v[sq.contact_indices, :]
    return out


class TestInteractionSVD:
    """Figure 4-3: well-separated interactions are numerically low-rank."""

    def test_separated_block_decays_faster_than_self_block(self, small_g, small_hierarchy):
        hier = small_hierarchy
        finest = hier.squares_at_level(hier.max_level)
        src = finest[0]
        # find a well-separated square on the same level
        far = None
        for cand in finest[::-1]:
            if not hier.are_local(src, cand):
                far = cand
                break
        s_self = interaction_singular_values(small_g, src.contact_indices, src.contact_indices)
        s_far = interaction_singular_values(small_g, src.contact_indices, far.contact_indices)
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
        assert all(data.rank <= 6 for data in rb.data.values())

    def test_storage_smaller_than_dense(self, built, small_g):
        rb, _ = built
        assert rb.storage_nonzeros() < 4 * small_g.size  # loose bound at this tiny size

    def test_solve_count_recorded(self, built):
        rb, counting = built
        assert rb.n_solves == counting.solve_count
        assert rb.n_solves > 0

    def test_apply_before_build_raises(self, small_hierarchy):
        rb = MultilevelRowBasis(small_hierarchy)
        with pytest.raises(RuntimeError):
            rb.apply(np.zeros(small_hierarchy.layout.n_contacts))

    def test_row_basis_orthonormal(self, built):
        rb, _ = built
        for data in rb.data.values():
            if data.rank:
                gram = data.v.T @ data.v
                assert np.allclose(gram, np.eye(data.rank), atol=1e-10)

    def test_linearity_of_apply(self, built, rng):
        rb, _ = built
        n = rb.hierarchy.layout.n_contacts
        v1, v2 = rng.standard_normal(n), rng.standard_normal(n)
        lhs = rb.apply(2.0 * v1 - 0.5 * v2)
        rhs = 2.0 * rb.apply(v1) - 0.5 * rb.apply(v2)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_storage_counts_only_stored_values(self, built):
        """V, GV and the local blocks; the row maps are bookkeeping, not storage."""
        rb, _ = built
        assert rb.storage_nonzeros() == 4528

    def test_row_maps_locate_member_squares(self, built):
        rb, _ = built
        for key, data in rb.data.items():
            members = rb.hierarchy.interactive_and_local(rb.hierarchy.get(key))
            assert set(data.p_rows) == {q.key for q in members}
            for q in members:
                assert np.array_equal(data.p_contacts[data.p_rows[q.key]], q.contact_indices)

    def test_apply_block_matches_per_pair_reference(self, built, small_g, rng):
        rb, _ = built
        block = rng.standard_normal((small_g.shape[0], 5))
        for v in (block, np.eye(small_g.shape[0])):
            diff = np.abs(rb.apply_block(v) - reference_apply_block(rb, v)).max()
            assert diff <= 1e-12 * np.abs(small_g).max()

    def test_apply_block_makes_no_position_search(self, built, monkeypatch, rng):
        rb, _ = built
        calls = []

        def counted(superset, subset):
            calls.append(1)
            return _positions(superset, subset)

        monkeypatch.setattr(rowbasis_module, "_positions", counted)
        rb.apply_block(rng.standard_normal((rb.hierarchy.layout.n_contacts, 3)))
        assert calls == []

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
        assert len(rb.data) < all_squares
        assert any(data.rank == 0 for data in rb.data.values())
        assert any(data.rank > 0 for data in rb.data.values())

    def test_apply_block_matches_per_pair_reference(self, decoupled, rng):
        rb, g = decoupled
        for v in (rng.standard_normal((g.shape[0], 4)), np.eye(g.shape[0])):
            diff = np.abs(rb.apply_block(v) - reference_apply_block(rb, v)).max()
            assert diff <= 1e-12 * np.abs(g).max()
