"""Tests for the layout generators used in the paper's evaluation."""

import numpy as np
import pytest
from layout_reference import has_overlaps

from repro.geometry import (
    SquareHierarchy,
    alternating_size_grid,
    irregular_same_size,
    large_alternating_grid,
    large_mixed,
    mixed_shapes,
    regular_grid,
    ring_contact,
    two_square_clusters,
)


class TestRegularGrid:
    def test_count_and_size(self):
        layout = regular_grid(n_side=8, size=128.0, fill=0.5)
        assert layout.n_contacts == 64
        assert layout.size_x == layout.size_y == 128.0

    def test_all_contacts_identical_size(self):
        layout = regular_grid(n_side=4, size=64.0, fill=0.4)
        areas = layout.areas
        assert np.allclose(areas, areas[0])

    def test_no_overlaps(self):
        assert not has_overlaps(regular_grid(n_side=6, size=96.0, fill=0.9))

    def test_invalid_fill(self):
        with pytest.raises(ValueError):
            regular_grid(n_side=4, fill=1.5)

    def test_contacts_fit_finest_squares(self):
        layout = regular_grid(n_side=8, size=128.0, fill=0.5)
        # should build a hierarchy at level 3 without any contact crossing a boundary
        SquareHierarchy(layout, max_level=3)


class TestIrregularSameSize:
    def test_fewer_contacts_than_grid(self):
        layout = irregular_same_size(n_side=8, keep_fraction=0.6, seed=1)
        assert 0 < layout.n_contacts < 64

    def test_same_sizes(self):
        layout = irregular_same_size(n_side=8, seed=2)
        assert np.allclose(layout.areas, layout.areas[0])

    def test_reproducible_with_seed(self):
        a = irregular_same_size(n_side=8, seed=3)
        b = irregular_same_size(n_side=8, seed=3)
        assert a.n_contacts == b.n_contacts
        assert np.allclose(a.centroids, b.centroids)

    def test_contacts_stay_in_cells(self):
        layout = irregular_same_size(n_side=8, size=128.0, seed=4)
        SquareHierarchy(layout, max_level=3)

    def test_invalid_keep_fraction(self):
        with pytest.raises(ValueError):
            irregular_same_size(keep_fraction=0.0)


class TestAlternatingSizeGrid:
    def test_two_sizes_present(self):
        layout = alternating_size_grid(n_side=8, size=128.0)
        areas = np.unique(np.round(layout.areas, 9))
        assert areas.size == 2

    def test_count(self):
        assert alternating_size_grid(n_side=8).n_contacts == 64

    def test_no_overlaps(self):
        assert not has_overlaps(alternating_size_grid(n_side=8))


class TestRingAndMixed:
    def test_ring_contact_pieces(self):
        pieces = ring_contact(0.0, 0.0, outer=10.0, thickness=1.0)
        assert len(pieces) == 4
        # pieces must not overlap and total area equals the ring area
        total = sum(p.area for p in pieces)
        assert np.isclose(total, 10.0 * 10.0 - 8.0 * 8.0)
        for i in range(4):
            for j in range(i + 1, 4):
                assert not pieces[i].overlaps(pieces[j])

    def test_ring_invalid_thickness(self):
        with pytest.raises(ValueError):
            ring_contact(0, 0, outer=4.0, thickness=2.5)

    def test_mixed_shapes_builds_hierarchy(self):
        layout = mixed_shapes(size=128.0, max_level=4, seed=3)
        assert layout.n_contacts > 50
        SquareHierarchy(layout, max_level=4)

    def test_mixed_shapes_has_varied_sizes(self):
        layout = mixed_shapes(size=128.0, max_level=4)
        areas = layout.areas
        assert areas.max() / areas.min() > 3.0


class TestLargeLayouts:
    def test_large_alternating_count(self):
        layout = large_alternating_grid(n_side=32, size=256.0)
        assert layout.n_contacts == 1024

    def test_large_mixed_two_populations(self):
        layout = large_mixed(size=256.0, n_blocks=4, max_level=5)
        assert layout.n_contacts > 100
        SquareHierarchy(layout, max_level=5)


class TestTwoSquareClusters:
    def test_cluster_separation(self):
        layout = two_square_clusters(size=64.0, n_per_cluster=9, separation_cells=3)
        assert layout.n_contacts == 18
        src = layout.centroids[:9]
        dst = layout.centroids[9:]
        # clusters are well separated: min inter-cluster distance >> intra spread
        d_between = np.min(
            np.linalg.norm(src[:, None, :] - dst[None, :, :], axis=-1)
        )
        assert d_between > 8.0
