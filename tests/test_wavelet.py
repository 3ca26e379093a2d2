"""Tests for the wavelet sparsification pipeline (Chapter 3)."""

import numpy as np
import pytest

from repro import CountingSolver, DenseMatrixSolver
from repro.analysis import evaluate_against_dense, max_relative_error
from repro.core import WaveletSparsifier


@pytest.fixture(scope="module")
def sparsifier(small_hierarchy):
    return WaveletSparsifier(small_hierarchy, order=2)


class TestKeptPattern:
    def test_pattern_symmetric(self, sparsifier):
        pattern = sparsifier.kept_pattern()
        assert (pattern != pattern.T).nnz == 0

    def test_pattern_includes_diagonal(self, sparsifier):
        pattern = sparsifier.kept_pattern().toarray()
        assert np.all(np.diag(pattern))

    def test_pattern_includes_root_rows(self, sparsifier):
        pattern = sparsifier.kept_pattern().toarray()
        for j in sparsifier.basis.root_v_columns():
            assert np.all(pattern[j, :])
            assert np.all(pattern[:, j])


class TestDensePathExtraction:
    def test_transform_dense_is_similarity(self, sparsifier, small_g):
        gw = sparsifier.transform_dense(small_g)
        q = sparsifier.basis.q_matrix.toarray()
        assert np.allclose(q @ gw @ q.T, small_g, atol=1e-8 * np.abs(small_g).max())

    def test_dense_path_accuracy(self, sparsifier, small_g):
        rep = sparsifier.extract_with_dense(small_g)
        report = evaluate_against_dense(rep, small_g)
        # at this tiny size the kept pattern is almost everything, so errors are tiny
        assert report.max_relative_error < 0.05

    def test_dense_path_uses_no_solves(self, sparsifier, small_g):
        rep = sparsifier.extract_with_dense(small_g)
        assert rep.n_solves == 0


class TestCombineSolvesExtraction:
    @pytest.fixture(scope="class")
    def extracted(self, sparsifier, small_g, small_layout):
        counting = CountingSolver(DenseMatrixSolver(small_g, small_layout))
        rep = sparsifier.extract(counting)
        return rep, counting

    def test_accuracy_close_to_dense_path(self, extracted, sparsifier, small_g):
        rep, _ = extracted
        rep_dense = sparsifier.extract_with_dense(small_g)
        diff = np.abs(rep.gw.toarray() - rep_dense.gw.toarray()).max()
        assert diff < 1e-6 * np.abs(small_g).max()

    def test_overall_accuracy(self, extracted, small_g):
        rep, _ = extracted
        assert max_relative_error(rep.to_dense(), small_g) < 0.05

    def test_solve_count_not_more_than_naive(self, extracted, small_g):
        rep, counting = extracted
        assert counting.solve_count <= small_g.shape[0]
        assert rep.n_solves == counting.solve_count

    def test_gw_symmetric(self, extracted):
        rep, _ = extracted
        asym = np.abs(rep.gw.toarray() - rep.gw.toarray().T).max()
        assert asym < 1e-8 * np.abs(rep.gw.toarray()).max()

    def test_thresholding_trades_accuracy_for_sparsity(self, extracted, small_g):
        rep, _ = extracted
        rept = rep.threshold_to_sparsity(rep.sparsity_factor() * 4)
        assert rept.sparsity_factor() > rep.sparsity_factor()
        err_full = max_relative_error(rep.to_dense(), small_g)
        err_thr = max_relative_error(rept.to_dense(), small_g)
        assert err_thr >= err_full


class TestMediumProblem:
    """On the 256-contact regular grid the combine-solves machinery genuinely combines."""

    def test_solve_reduction_and_accuracy(self, medium_hierarchy, medium_g, medium_layout):
        sparsifier = WaveletSparsifier(medium_hierarchy, order=2)
        counting = CountingSolver(DenseMatrixSolver(medium_g, medium_layout))
        rep = sparsifier.extract(counting)
        assert counting.solve_count < medium_g.shape[0]
        report = evaluate_against_dense(rep, medium_g)
        assert report.max_relative_error < 0.02
        assert report.sparsity_factor > 1.2

    def test_sparsify_convenience_with_threshold(self, medium_hierarchy, medium_g, medium_layout):
        sparsifier = WaveletSparsifier(medium_hierarchy, order=2)
        solver = DenseMatrixSolver(medium_g, medium_layout)
        rep = sparsifier.sparsify(solver, threshold_sparsity_multiplier=6.0)
        assert rep.sparsity_factor() > 5.0
        report = evaluate_against_dense(rep, medium_g)
        assert report.fraction_above_10pct < 0.05


class _RecordingSolver(DenseMatrixSolver):
    """Exact black box that logs the width of every ``solve_many`` call."""

    def __init__(self, matrix, layout) -> None:
        super().__init__(matrix, layout)
        self.widths: list[int] = []

    def solve_many(self, voltages):
        self.widths.append(np.asarray(voltages).shape[1])
        return super().solve_many(voltages)


class TestOneSubmission:
    """Every combine-solve column depends on the geometry-only basis, never on
    a response, so the extraction sends them to the black box as one block."""

    def test_default_is_one_call_of_every_solve(self, medium_hierarchy, medium_g, medium_layout):
        recorder = _RecordingSolver(medium_g, medium_layout)
        rep = WaveletSparsifier(medium_hierarchy, order=2).extract(recorder)
        assert recorder.widths == [rep.n_solves]

    def test_max_block_chunks_without_changing_gw(self, medium_hierarchy, medium_g, medium_layout):
        whole = WaveletSparsifier(medium_hierarchy, order=2).extract(
            DenseMatrixSolver(medium_g, medium_layout)
        )
        recorder = _RecordingSolver(medium_g, medium_layout)
        rep = WaveletSparsifier(medium_hierarchy, order=2, max_block=5).extract(recorder)
        assert max(recorder.widths) <= 5
        assert sum(recorder.widths) == rep.n_solves == whole.n_solves
        assert np.array_equal(rep.gw.indptr, whole.gw.indptr)
        assert np.array_equal(rep.gw.indices, whole.gw.indices)
        assert np.array_equal(rep.gw.data, whole.gw.data)
