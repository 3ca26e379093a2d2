"""Unit tests for Contact and ContactLayout."""

import numpy as np
import pytest
from layout_reference import has_overlaps

from repro.geometry import Contact, ContactLayout


class TestContact:
    def test_basic_properties(self):
        c = Contact(2.0, 3.0, 4.0, 6.0, name="a")
        assert c.x2 == 6.0
        assert c.y2 == 9.0
        assert c.area == 24.0
        assert c.centroid == (4.0, 6.0)

    @pytest.mark.parametrize("w,h", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)])
    def test_invalid_dimensions_rejected(self, w, h):
        with pytest.raises(ValueError):
            Contact(0.0, 0.0, w, h)

    def test_overlap_detection(self):
        a = Contact(0.0, 0.0, 2.0, 2.0)
        b = Contact(1.0, 1.0, 2.0, 2.0)
        c = Contact(2.0, 0.0, 2.0, 2.0)  # touching edge: no positive-area overlap
        assert a.overlaps(b)
        assert b.overlaps(a)
        assert not a.overlaps(c)

    def test_split_preserves_area(self):
        c = Contact(0.0, 0.0, 10.0, 6.0)
        pieces = c.split(4.0)
        assert len(pieces) == 3 * 2
        assert np.isclose(sum(p.area for p in pieces), c.area)
        for p in pieces:
            assert p.width <= 4.0 + 1e-12 and p.height <= 4.0 + 1e-12

    def test_split_no_op_when_small(self):
        c = Contact(0.0, 0.0, 1.0, 1.0)
        assert c.split(2.0) == [c]

    def test_split_invalid(self):
        with pytest.raises(ValueError):
            Contact(0, 0, 1, 1).split(0.0)

    def test_zeroth_moment_is_area(self):
        c = Contact(1.0, 2.0, 3.0, 5.0)
        assert np.isclose(c.moment(0, 0, (0.0, 0.0)), c.area)

    def test_first_moment_about_centroid_vanishes(self):
        c = Contact(1.0, 2.0, 3.0, 5.0)
        assert abs(c.moment(1, 0, c.centroid)) < 1e-12
        assert abs(c.moment(0, 1, c.centroid)) < 1e-12

    def test_moment_matches_numerical_quadrature(self):
        c = Contact(0.5, 1.25, 2.0, 0.75)
        center = (1.0, 1.0)
        xs = np.linspace(c.x, c.x2, 201)
        ys = np.linspace(c.y, c.y2, 201)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        for alpha, beta in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            integrand = (xx - center[0]) ** alpha * (yy - center[1]) ** beta
            numeric = np.trapezoid(np.trapezoid(integrand, ys, axis=1), xs)
            assert np.isclose(c.moment(alpha, beta, center), numeric, rtol=1e-4)


class TestContactLayout:
    def test_counts_and_iteration(self):
        contacts = [Contact(i * 2.0, 0.0, 1.0, 1.0) for i in range(5)]
        layout = ContactLayout(contacts, 16.0, 16.0)
        assert layout.n_contacts == 5
        assert len(layout) == 5
        assert list(layout)[2] == contacts[2]
        assert layout[4] == contacts[4]

    def test_contacts_are_stored_once(self):
        """``contacts`` hands out the one stored tuple: indexing it per
        contact (the wavelet basis' moment matrix) costs O(1), not O(n)."""
        layout = ContactLayout([Contact(i * 2.0, 0.0, 1.0, 1.0) for i in range(5)], 16.0, 16.0)
        assert layout.contacts is layout.contacts
        assert layout.contacts == tuple(layout)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            ContactLayout([Contact(15.5, 0.0, 1.0, 1.0)], 16.0, 16.0)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            ContactLayout([Contact(0, 0, 1, 1)], 0.0, 16.0)

    def test_centroids_and_areas(self):
        layout = ContactLayout(
            [Contact(0, 0, 2, 2), Contact(4, 4, 1, 3)], 16.0, 16.0
        )
        assert layout.centroids.shape == (2, 2)
        assert np.allclose(layout.areas, [4.0, 3.0])
        assert np.isclose(layout.total_contact_area, 7.0)
        assert np.isclose(layout.coverage, 7.0 / 256.0)

    def test_overlap_detection(self):
        good = ContactLayout([Contact(0, 0, 2, 2), Contact(3, 3, 2, 2)], 16, 16)
        bad = ContactLayout([Contact(0, 0, 2, 2), Contact(1, 1, 2, 2)], 16, 16)
        assert not has_overlaps(good)
        assert has_overlaps(bad)

    def test_split_for_level_respects_square_size(self):
        layout = ContactLayout([Contact(0, 0, 10, 3)], 16.0, 16.0)
        split = layout.split_for_level(3)  # squares of side 2
        assert split.n_contacts > 1
        assert np.isclose(split.total_contact_area, layout.total_contact_area)
        side = 16.0 / 2 ** 3
        for c in split:
            assert c.width <= side + 1e-9 and c.height <= side + 1e-9

    def test_subset(self):
        layout = ContactLayout(
            [Contact(i * 2.0, 0.0, 1.0, 1.0, name=f"c{i}") for i in range(4)], 16, 16
        )
        sub = layout.subset([0, 3])
        assert sub.n_contacts == 2
        assert sub[1].name == "c3"
