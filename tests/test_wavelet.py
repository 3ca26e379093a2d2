"""Tests for the wavelet sparsification pipeline (Chapter 3)."""

import numpy as np
import pytest
from scipy import sparse
from square_reference import ReferenceHierarchy

from repro import CountingSolver, DenseMatrixSolver
from repro.analysis import evaluate_against_dense, max_relative_error
from repro.core import SparsifiedConductance, WaveletSparsifier


def w_columns(sparsifier):
    """Reference hierarchy and ``key -> Q`` columns of each square's vanishing-moment vectors."""
    basis = sparsifier.basis
    ref = ReferenceHierarchy(sparsifier.hierarchy.layout, sparsifier.hierarchy.max_level)
    columns = {}
    for level, (start, count) in enumerate(zip(basis.w_start, basis.n_w)):
        for s, key in enumerate(ref.squares_at_level(level)):
            columns[key] = np.arange(start[s], start[s] + count[s])
    return ref, columns


def kept_pattern(sparsifier):
    """Boolean sparsity pattern of ``Gws`` implied by the locality assumption.

    Written out square pair by square pair: the root square's non-vanishing
    columns interact with everything, and the vanishing-moment columns of a
    source square with those of its target squares.
    """
    basis = sparsifier.basis
    ref, w_cols = w_columns(sparsifier)
    ncols = basis.n_columns
    pattern = np.zeros((ncols, ncols), dtype=bool)
    root_cols = basis.root_v_columns()
    pattern[root_cols, :] = pattern[:, root_cols] = True
    for source in ref.squares:
        for target in ref.target_squares(source):
            pattern[np.ix_(w_cols[target], w_cols[source])] = True
            pattern[np.ix_(w_cols[source], w_cols[target])] = True
    return sparse.csr_matrix(pattern)


def transform_dense(sparsifier, g_exact):
    """Full transformed matrix ``Gw = Q' G Q`` from a known dense ``G``."""
    q = sparsifier.basis.q_matrix.toarray()
    return q.T @ np.asarray(g_exact, dtype=float) @ q


def extract_with_dense(sparsifier, g_exact):
    """``Gws`` from a known dense ``G``: the locality pattern applied to ``Q' G Q``.

    Isolates the basis-quality question from the combine-solves approximation.
    """
    pattern = kept_pattern(sparsifier).tocoo()
    data = transform_dense(sparsifier, g_exact)[pattern.row, pattern.col]
    gws = sparse.coo_matrix((data, (pattern.row, pattern.col)), shape=pattern.shape)
    return SparsifiedConductance(sparsifier.basis.q_matrix, gws.tocsr(), method="wavelet(dense)")


def reference_extract(sparsifier, solver):
    """``Gws`` the level-by-level way: one theta per ``(level, class, m)``, its
    response attributed source by source and target by target, first write kept."""
    basis = sparsifier.basis
    ref, w_cols = w_columns(sparsifier)
    q = basis.q_matrix
    columns, thetas = [q[:, basis.root_v_columns()].toarray()], []
    for level in range(ref.max_level + 1):
        squares = [key for key in ref.squares_at_level(level) if w_cols[key].size]
        for a in range(3):
            for b in range(3):
                group = [key for key in squares if (key[1] % 3, key[2] % 3) == (a, b)]
                for m in range(max((w_cols[key].size for key in group), default=0)):
                    members = [key for key in group if m < w_cols[key].size]
                    theta = np.zeros(q.shape[0])
                    for key in members:
                        theta += q[:, w_cols[key][m]].toarray().ravel()
                    columns.append(theta[:, None])
                    thetas.append((members, m))
    responses = solver.solve_many(np.hstack(columns))
    gws = {}

    def write(row, col, value):
        gws.setdefault((int(row), int(col)), value)

    n_root = basis.root_v_columns().size
    projected = q.T @ responses
    for k, j in enumerate(basis.root_v_columns()):
        for x in range(basis.n_columns):
            write(j, x, projected[x, k])
            write(x, j, projected[x, k])
    for t, (members, m) in enumerate(thetas):
        for key in members:
            y = w_cols[key][m]
            for target in ref.target_squares(key):
                for x in w_cols[target]:
                    write(x, y, projected[x, n_root + t])
                    write(y, x, projected[x, n_root + t])
    rows, cols = np.array(list(gws)).T
    data = np.array(list(gws.values()))
    return sparse.csr_matrix((data, (rows, cols)), shape=q.T.shape), n_root + len(thetas)


@pytest.fixture(scope="module")
def sparsifier(small_hierarchy):
    return WaveletSparsifier(small_hierarchy, order=2)


@pytest.fixture(scope="module")
def extracted_pattern(sparsifier, small_dense_solver):
    gw = sparsifier.extract(small_dense_solver).gw
    return sparse.csr_matrix((np.ones(gw.nnz, dtype=bool), gw.indices, gw.indptr), shape=gw.shape)


class TestKeptPattern:
    """``extract`` keeps exactly the entries the locality assumption allows."""

    def test_pattern_symmetric(self, sparsifier, extracted_pattern):
        assert (extracted_pattern != extracted_pattern.T).nnz == 0
        assert (extracted_pattern != kept_pattern(sparsifier)).nnz == 0

    def test_pattern_includes_diagonal(self, extracted_pattern):
        assert np.all(extracted_pattern.diagonal())

    def test_pattern_includes_root_rows(self, sparsifier, extracted_pattern):
        pattern = extracted_pattern.toarray()
        for j in sparsifier.basis.root_v_columns():
            assert np.all(pattern[j, :])
            assert np.all(pattern[:, j])


class TestDensePathExtraction:
    def test_transform_dense_is_similarity(self, sparsifier, small_g):
        gw = transform_dense(sparsifier, small_g)
        q = sparsifier.basis.q_matrix.toarray()
        assert np.allclose(q @ gw @ q.T, small_g, atol=1e-8 * np.abs(small_g).max())

    def test_dense_path_accuracy(self, sparsifier, small_g):
        rep = extract_with_dense(sparsifier, small_g)
        report = evaluate_against_dense(rep, small_g)
        # at this tiny size the kept pattern is almost everything, so errors are tiny
        assert report.max_relative_error < 0.05


class TestCombineSolvesExtraction:
    @pytest.fixture(scope="class")
    def extracted(self, sparsifier, small_g, small_layout):
        counting = CountingSolver(DenseMatrixSolver(small_g, small_layout))
        rep = sparsifier.extract(counting)
        return rep, counting

    def test_accuracy_close_to_dense_path(self, extracted, sparsifier, small_g):
        rep, _ = extracted
        rep_dense = extract_with_dense(sparsifier, small_g)
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

    def test_extract_matches_level_by_level_reference(
        self, medium_hierarchy, medium_g, medium_layout
    ):
        solver = DenseMatrixSolver(medium_g, medium_layout)
        sparsifier = WaveletSparsifier(medium_hierarchy, order=2)
        rep = sparsifier.extract(solver)
        want, n_solves = reference_extract(sparsifier, solver)
        assert rep.n_solves == n_solves
        assert rep.gw.nnz == want.nnz
        assert abs(rep.gw - want).max() <= 1e-13 * abs(want).max()

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
