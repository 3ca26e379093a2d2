"""Tests for the panel discretisation of the top surface."""

import numpy as np
import pytest

from repro import EigenfunctionSolver, SubstrateProfile
from repro.geometry import Contact, ContactLayout, PanelGrid, regular_grid


@pytest.fixture(scope="module")
def grid():
    return PanelGrid(regular_grid(n_side=4, size=64.0, fill=0.5), 32, 32)


class TestAssignment:
    def test_every_contact_gets_panels(self, grid):
        assert all(p.size > 0 for p in grid.contact_panels)

    def test_panel_owners_consistent(self, grid):
        for idx, panels in enumerate(grid.contact_panels):
            assert np.all(grid.panel_to_contact[panels] == idx)

    def test_contact_panel_count_matches_area(self, grid):
        # a contact of side 8 on a 2-unit panel grid covers 4x4 panels
        assert all(p.size == 16 for p in grid.contact_panels)

    def test_tiny_contact_snaps_to_nearest_panel(self):
        layout = ContactLayout([Contact(10.05, 10.05, 0.2, 0.2)], 64.0, 64.0)
        grid = PanelGrid(layout, 16, 16)
        assert grid.contact_panels[0].size == 1

    @pytest.mark.parametrize("left_first", [True, False], ids=["left-first", "right-first"])
    def test_touching_contacts_shared_centre_goes_to_first_owner(self, left_first):
        # pitch 8 puts panel centres at x = 4, 12, 20, ...: both contacts cover x = 12
        left, right = Contact(0.0, 0.0, 12.0, 8.0), Contact(12.0, 0.0, 12.0, 8.0)
        contacts = [left, right] if left_first else [right, left]
        grid = PanelGrid(ContactLayout(contacts, 64.0, 64.0), 8, 8)
        # flat indices i * ny + j of the row-j = 0 panels centred at x = 4, 12, 20
        x4, x12, x20 = 0, grid.ny, 2 * grid.ny
        owned = [[x4, x12], [x20]] if left_first else [[x12, x20], [x4]]
        assert [p.tolist() for p in grid.contact_panels] == owned
        assert grid.panel_to_contact[x12] == 0

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            PanelGrid(regular_grid(n_side=4, size=64.0), 1, 8)

    def test_for_layout_resolves_smallest_contact(self):
        layout = regular_grid(n_side=8, size=128.0, fill=0.25)
        grid = PanelGrid.for_layout(layout, panels_per_min_contact=2, max_panels=256)
        min_side = min(min(c.width, c.height) for c in layout.contacts)
        assert grid.hx <= min_side / 2 + 1e-9


@pytest.fixture(scope="module")
def solver():
    layout = regular_grid(n_side=4, size=64.0, fill=0.5)
    profile = SubstrateProfile.two_layer_example(size=64.0)
    return EigenfunctionSolver(layout, profile, max_panels=32)


class TestValueTransfer:
    """The solver's one contact<->panel map, built from ``panel_to_contact``:
    the owner index ``v[_owner]`` spreads contact values onto contact panels,
    and the sparse incidence ``_incidence @ q`` sums panels into contacts."""

    def test_spread_then_sum_roundtrip(self, solver):
        grid = solver.grid
        values = np.arange(1.0, grid.layout.n_contacts + 1)
        on_panels = np.zeros(grid.n_panels)
        on_panels[grid.all_contact_panels] = values[solver._owner]
        for idx, panels in enumerate(grid.contact_panels):
            assert np.all(on_panels[panels] == values[idx])
        assert np.count_nonzero(on_panels) == grid.n_contact_panels
        # summing panel values counts each panel once
        sizes = np.array([p.size for p in grid.contact_panels])
        assert np.array_equal(solver._incidence @ values[solver._owner], values * sizes)
        # blocks go through the same map column by column
        block = np.column_stack([values, -2.0 * values])
        assert np.array_equal(
            solver._incidence @ block[solver._owner],
            np.column_stack([values * sizes, -2.0 * values * sizes]),
        )

    def test_incidence_matrix_shape_and_content(self, solver):
        grid = solver.grid
        inc = solver._incidence.toarray()
        assert inc.shape == (grid.layout.n_contacts, grid.n_contact_panels)
        assert np.allclose(inc.sum(axis=1), [p.size for p in grid.contact_panels])
        assert np.allclose(inc.sum(axis=0), 1.0)

    def test_panel_centers(self, grid):
        centers = grid.panel_centers()
        assert centers.shape == (grid.n_panels, 2)
        assert centers[:, 0].min() == pytest.approx(grid.hx / 2)
        assert centers[:, 1].max() == pytest.approx(64.0 - grid.hy / 2)
