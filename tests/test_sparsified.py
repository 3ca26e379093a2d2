"""Tests for the SparsifiedConductance container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.stats import ortho_group

from repro.core.sparsified import SparsifiedConductance


def make_rep(n=24, seed=0, method="test"):
    rng = np.random.default_rng(seed)
    q = ortho_group.rvs(n, random_state=seed)
    gw = rng.standard_normal((n, n))
    gw = 0.5 * (gw + gw.T)
    return SparsifiedConductance(sparse.csr_matrix(q), sparse.csr_matrix(gw), n_solves=10, method=method), q, gw


class TestBasics:
    def test_apply_matches_dense(self, rng):
        rep, q, gw = make_rep()
        v = rng.standard_normal(24)
        assert np.allclose(rep.apply(v), q @ gw @ q.T @ v)

    def test_to_dense(self):
        rep, q, gw = make_rep()
        assert np.allclose(rep.to_dense(), q @ gw @ q.T)

    def test_matmat(self, rng):
        rep, q, gw = make_rep()
        block = rng.standard_normal((24, 3))
        assert np.allclose(rep.matmat(block), q @ gw @ q.T @ block)

    def test_sparsity_factors(self):
        rep, _, _ = make_rep()
        assert rep.sparsity_factor() == pytest.approx(1.0, rel=0.01)
        assert rep.solve_reduction_factor() == pytest.approx(2.4)

    def test_shape_validation(self):
        q = sparse.eye(4).tocsr()
        gw = sparse.eye(3).tocsr()
        with pytest.raises(ValueError):
            SparsifiedConductance(q, gw)

    def test_summary_keys(self):
        rep, _, _ = make_rep()
        s = rep.summary()
        assert {"sparsity_factor", "n_solves", "nnz_gw"} <= set(s)


class TestThresholding:
    def test_threshold_drops_small_entries(self):
        rep, _, gw = make_rep()
        cutoff = np.median(np.abs(gw))
        rept = rep.threshold(cutoff)
        kept = rept.gw.toarray()
        assert np.all((np.abs(kept) >= cutoff) | (kept == 0.0))
        assert rept.nnz_gw < rep.nnz_gw

    def test_threshold_to_sparsity_reaches_target(self):
        rep, _, _ = make_rep(n=32)
        target = 4.0
        rept = rep.threshold_to_sparsity(target)
        assert rept.sparsity_factor() >= 0.8 * target

    def test_threshold_noop_if_already_sparse(self):
        q = sparse.eye(8).tocsr()
        gw = sparse.eye(8).tocsr()
        rep = SparsifiedConductance(q, gw)
        rept = rep.threshold_to_sparsity(2.0)
        assert rept.nnz_gw == rep.nnz_gw

    @settings(max_examples=20, deadline=None)
    @given(target=st.floats(min_value=1.5, max_value=20.0))
    def test_property_threshold_error_bounded_by_dropped_mass(self, target):
        """Thresholding only removes entries, so the dense error is bounded by what was dropped."""
        rep, _, gw = make_rep(n=20, seed=3)
        rept = rep.threshold_to_sparsity(target)
        dropped = rep.gw.toarray() - rept.gw.toarray()
        err = np.linalg.norm(rep.to_dense() - rept.to_dense())
        assert err <= np.linalg.norm(dropped) + 1e-9
