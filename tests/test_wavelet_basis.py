"""Tests for the multilevel vanishing-moment basis (Section 3.4)."""

import numpy as np
import pytest

from repro.core.moments import contact_moment_matrix
from repro.core.wavelet_basis import WaveletBasis
from repro.geometry import SquareHierarchy, alternating_size_grid, irregular_same_size, regular_grid


@pytest.fixture(scope="module")
def basis(small_hier=None):
    layout = regular_grid(n_side=8, size=128.0, fill=0.5)
    hier = SquareHierarchy(layout, max_level=3)
    return WaveletBasis(hier, order=2)


def orthogonality_error(basis):
    q = basis.q_matrix.toarray()
    assert q.shape[0] == q.shape[1]  # complete: Q spans the whole voltage space
    return np.abs(q.T @ q - np.eye(q.shape[1])).max()


def square_bases(basis):
    """``(level index, square, its basis)`` of every square."""
    for index, bases in zip(basis.hierarchy.levels, basis.squares):
        for s, sb in enumerate(bases):
            yield index, s, sb


class TestStructure:
    def test_q_is_square_and_orthogonal(self, basis):
        assert orthogonality_error(basis) < 1e-10

    def test_column_count_matches_contacts(self, basis):
        assert basis.n_columns == basis.hierarchy.layout.n_contacts

    def test_nonvanishing_count_bounded_by_moments(self, basis):
        for _, _, sb in square_bases(basis):
            assert sb.V.shape[1] <= basis.n_moments

    def test_root_v_columns_exist(self, basis):
        assert basis.root_v_columns().size > 0

    def test_column_lookup_covers_all_columns(self, basis):
        starts = [basis.root_v_columns()[:1]] + [s[n > 0] for s, n in zip(basis.w_start, basis.n_w)]
        counts = [[basis.root_v_columns().size]] + [n[n > 0] for n in basis.n_w]
        starts, counts = np.concatenate(starts), np.concatenate(counts)
        order = np.argsort(starts)
        assert np.array_equal(starts[order], np.cumsum(counts[order]) - counts[order])
        assert counts.sum() == basis.n_columns

    def test_column_supports_respect_squares(self, basis):
        q = basis.q_matrix.tocsc()
        for index, s, _ in square_bases(basis):
            start, count = basis.w_start[index.level][s], basis.n_w[index.level][s]
            support = q[:, start : start + count].nonzero()[0]
            own = index.contacts[index.contact_ptr[s] : index.contact_ptr[s + 1]]
            assert set(support) <= set(own)


class TestVanishingMoments:
    def test_w_columns_have_vanishing_moments(self, basis):
        """Every W basis function has all moments of order <= p equal to zero."""
        hier = basis.hierarchy
        for index, s, sb in square_bases(basis):
            if sb.W.shape[1] == 0:
                continue
            i, j = index.ij[s]
            nx = 2**index.level
            center = ((i + 0.5) * hier.size_x / nx, (j + 0.5) * hier.size_y / nx)
            own = index.contacts[index.contact_ptr[s] : index.contact_ptr[s + 1]]
            m = contact_moment_matrix(hier.layout, own, center, 2)
            residual = m @ sb.W
            scale = np.abs(m).max() + 1e-30
            assert np.abs(residual).max() < 1e-8 * scale

    def test_v_columns_orthonormal(self, basis):
        for _, _, sb in square_bases(basis):
            if sb.V.shape[1]:
                gram = sb.V.T @ sb.V
                assert np.allclose(gram, np.eye(sb.V.shape[1]), atol=1e-10)

    def test_v_and_w_orthogonal(self, basis):
        for _, _, sb in square_bases(basis):
            if sb.V.shape[1] and sb.W.shape[1]:
                assert np.abs(sb.V.T @ sb.W).max() < 1e-10


class TestDifferentLayouts:
    @pytest.mark.parametrize("factory", [
        lambda: irregular_same_size(n_side=8, size=128.0, seed=2),
        lambda: alternating_size_grid(n_side=8, size=128.0),
    ])
    def test_orthogonal_complete_for_irregular_layouts(self, factory):
        layout = factory()
        hier = SquareHierarchy(layout, max_level=3)
        assert orthogonality_error(WaveletBasis(hier, order=2)) < 1e-9

    def test_order_zero_basis(self):
        layout = regular_grid(n_side=8, size=128.0)
        hier = SquareHierarchy(layout, max_level=3)
        basis = WaveletBasis(hier, order=0)
        assert orthogonality_error(basis) < 1e-10
        # with p=0 each 4-contact square yields 3 vanishing vectors (Figure 3-2)
        assert max(sb.V.shape[1] for sb in basis.squares[-1]) <= 1
