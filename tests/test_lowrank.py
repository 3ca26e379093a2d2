"""Tests for the low-rank sparsification (Chapter 4)."""

import numpy as np
import pytest
from scipy import sparse
from square_reference import ReferenceHierarchy, quadrant_order_key

from repro import CountingSolver, DenseMatrixSolver
from repro.analysis import evaluate_against_dense, fraction_above, max_relative_error
from repro.core import WaveletSparsifier
from repro.core.lowrank import LowRankSparsifier
from repro.core.rowbasis import MultilevelRowBasis
from repro.core.sparsified import Q_CUT


def reference_gw(sp, q):
    """``Gw`` the per-square way, from the sweep's bases and the output ``Q``.

    Every (source, target) block of fast-decaying columns in hierarchy
    order, then the coarsest slow-decaying columns and rows, each position
    keeping its first write, then the two halves averaged.  Squares, their
    quadrant order and their targets come from the per-square reference.
    """
    ref = ReferenceHierarchy(sp.hierarchy.layout, sp.hierarchy.max_level)
    levels = sorted(sp.bases)
    # Q's layout: coarsest U first, then T level by level, squares in quadrant order
    q_cols, start = {}, 0
    for kind, level in [("u", levels[0])] + [("t", level) for level in levels]:
        ptr = getattr(sp.bases[level], kind + "_cols")
        squares = ref.squares_at_level(level)
        for s in sorted(range(len(squares)), key=lambda s: quadrant_order_key(squares[s])):
            q_cols[kind, squares[s]] = np.arange(start, start + ptr[s + 1] - ptr[s])
            start += ptr[s + 1] - ptr[s]
    gw = {}

    def write(rows, cols, block):
        for (a, b), value in np.ndenumerate(block):
            gw.setdefault((int(rows[a]), int(cols[b])), value)

    for level in levels:
        bases = sp.bases[level]
        for s, key in enumerate(ref.squares_at_level(level)):
            source = q_cols["t", key]
            resp = bases.resp_t[:, bases.t_cols[s] : bases.t_cols[s + 1]].toarray()
            for target in ref.target_squares(key):
                block = q[:, q_cols["t", target]].toarray().T @ resp
                write(q_cols["t", target], source, block)
                write(source, q_cols["t", target], block.T)
    u = np.concatenate([q_cols["u", key] for key in ref.squares_at_level(levels[0])])
    u_cols = q.T @ sp.rowbasis.apply_block(q[:, u].toarray())
    everything = np.arange(q.shape[1])
    for k, col in enumerate(u):
        write(everything, [col], u_cols[:, k : k + 1])
        write([col], everything, u_cols[:, k : k + 1].T)
    rows, cols = np.array(list(gw)).T
    full = sparse.csr_matrix((np.array(list(gw.values())), (rows, cols)), shape=(q.shape[1],) * 2)
    return 0.5 * (full + full.T)


@pytest.fixture(scope="module")
def built_small(small_hierarchy, small_g, small_layout):
    counting = CountingSolver(DenseMatrixSolver(small_g, small_layout))
    sp = LowRankSparsifier(small_hierarchy, max_rank=6, seed=2)
    sp.build(counting)
    rep = sp.to_sparsified()
    return sp, rep, counting


class TestRepresentation:
    def test_q_orthogonal_and_complete(self, built_small, small_g):
        _, rep, _ = built_small
        q = rep.q.toarray()
        assert q.shape == (small_g.shape[0], small_g.shape[0])
        assert np.abs(q.T @ q - np.eye(q.shape[0])).max() < 1e-8

    def test_accuracy_unthresholded(self, built_small, small_g):
        _, rep, _ = built_small
        assert max_relative_error(rep.to_dense(), small_g) < 0.15
        assert fraction_above(rep.to_dense(), small_g, 0.10) < 0.01

    def test_gw_symmetric(self, built_small):
        _, rep, _ = built_small
        gw = rep.gw.toarray()
        assert np.abs(gw - gw.T).max() < 1e-6 * np.abs(gw).max()

    def test_solves_counted(self, built_small, small_g):
        sp, rep, counting = built_small
        assert rep.n_solves == counting.solve_count == sp.n_solves
        assert rep.n_solves <= small_g.shape[0] * 6

    def test_to_sparsified_requires_build(self, small_hierarchy):
        sp = LowRankSparsifier(small_hierarchy)
        with pytest.raises(RuntimeError):
            sp.to_sparsified()

    def test_gw_matches_per_square_reference(self, built_small):
        sp, rep, _ = built_small
        want = reference_gw(sp, rep.q)
        assert rep.gw.nnz == want.nnz
        assert abs(rep.gw - want).max() <= 1e-12 * abs(want).max()

    def test_sparsity_and_solves_pinned(self, built_small):
        _, rep, _ = built_small
        assert (rep.nnz_gw, rep.nnz_q, rep.n_solves) == (3584, 256, 123)

    def test_wavelet_sparsity_and_solves_pinned(self, small_hierarchy, small_dense_solver):
        rep = WaveletSparsifier(small_hierarchy, order=2).extract(small_dense_solver)
        assert (rep.nnz_gw, rep.nnz_q, rep.n_solves) == (4096, 2160, 64)

    def test_coarsest_vectors_applied_in_one_block(
        self, small_hierarchy, small_dense_solver, monkeypatch
    ):
        sp = LowRankSparsifier(small_hierarchy, max_rank=6, seed=2)
        sp.build(small_dense_solver)
        calls = []
        original = MultilevelRowBasis.apply_block

        def counted(rowbasis, voltage_block):
            calls.append(voltage_block.shape[1])
            return original(rowbasis, voltage_block)

        monkeypatch.setattr(MultilevelRowBasis, "apply_block", counted)
        sp.to_sparsified()
        n_coarsest = sp.bases[2].u.shape[1]
        assert small_hierarchy.levels[2].n_squares == 16
        assert calls == [n_coarsest]

    def test_thresholding(self, built_small, small_g):
        _, rep, _ = built_small
        rept = rep.threshold_to_sparsity(rep.sparsity_factor() * 4)
        assert rept.sparsity_factor() > rep.sparsity_factor()
        assert fraction_above(rept.to_dense(), small_g, 0.10) < 0.10


class TestAgainstWavelet:
    """Tables 4.1/4.2: on alternating-size layouts the low-rank method wins."""

    @pytest.fixture(scope="class")
    def comparison(self, alternating_hierarchy, alternating_g, alternating_layout):
        solver = DenseMatrixSolver(alternating_g, alternating_layout)
        lowrank = LowRankSparsifier(alternating_hierarchy, max_rank=6, seed=0)
        lowrank.build(CountingSolver(solver))
        rep_lr = lowrank.to_sparsified()
        wavelet = WaveletSparsifier(alternating_hierarchy, order=2)
        rep_wv = wavelet.extract(CountingSolver(solver))
        return rep_lr, rep_wv

    def test_lowrank_more_accurate_on_alternating_sizes(self, comparison, alternating_g):
        rep_lr, rep_wv = comparison
        err_lr = max_relative_error(rep_lr.to_dense(), alternating_g)
        err_wv = max_relative_error(rep_wv.to_dense(), alternating_g)
        assert err_lr < err_wv

    def test_lowrank_unthresholded_accuracy(self, comparison, alternating_g):
        rep_lr, _ = comparison
        report = evaluate_against_dense(rep_lr, alternating_g)
        assert report.max_relative_error < 0.30
        assert report.fraction_above_10pct < 0.02

    def test_lowrank_not_less_sparse(self, comparison):
        rep_lr, rep_wv = comparison
        assert rep_lr.sparsity_factor() >= rep_wv.sparsity_factor() * 0.9

    def test_thresholded_comparison_matches_paper_direction(self, comparison, alternating_g):
        """Table 4.2: at equal sparsity the wavelet method has far more bad entries."""
        rep_lr, rep_wv = comparison
        rep_lr_t = rep_lr.threshold_to_sparsity(rep_lr.sparsity_factor() * 6)
        rep_wv_t = rep_wv.threshold_to_sparsity(rep_lr_t.sparsity_factor())
        frac_lr = fraction_above(rep_lr_t.to_dense(), alternating_g, 0.10)
        frac_wv = fraction_above(rep_wv_t.to_dense(), alternating_g, 0.10)
        assert frac_lr < frac_wv


@pytest.mark.parametrize("grid", ["medium", "alternating"])
def test_q_holds_no_rounding_noise(grid, request):
    """No stored ``Q`` entry of either method lies below ``Q_CUT`` of its column's largest.

    Such an entry cancels to rounding noise, so whether it is stored would
    depend on the summation order (the n_side=16 regular grid's wavelet
    ``Q`` held 32 of them, at most 1.2e-14 of their column's largest).
    """
    hierarchy = request.getfixturevalue(f"{grid}_hierarchy")
    solver = DenseMatrixSolver(request.getfixturevalue(f"{grid}_g"), hierarchy.layout)
    lowrank = LowRankSparsifier(hierarchy, max_rank=6, seed=0)
    for q in (WaveletSparsifier(hierarchy, order=2).basis.q_matrix, lowrank.sparsify(solver).q):
        q = sparse.csc_matrix(q)
        assert q.nnz > 0
        for c in range(q.shape[1]):
            column = np.abs(q.data[q.indptr[c] : q.indptr[c + 1]])
            assert np.all(column >= Q_CUT * column.max())
