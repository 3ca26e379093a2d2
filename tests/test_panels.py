"""Tests for the panel discretisation of the top surface."""

import numpy as np
import pytest

from repro import EigenfunctionSolver, SubstrateProfile
from repro.experiments import chapter4_examples, paper_examples
from repro.geometry import Contact, ContactLayout, PanelGrid, regular_grid
from repro.substrate.fd import Grid3D


@pytest.fixture(scope="module")
def grid():
    return PanelGrid(regular_grid(n_side=4, size=64.0, fill=0.5), 32, 32)


def _panel_counts(grid):
    owned = grid.panel_to_contact[grid.panel_to_contact >= 0]
    return np.bincount(owned, minlength=grid.layout.n_contacts)


def _reference_owners(layout, nx, ny):
    """Brute-force ownership rule, contact by contact: each cell centre is
    tested with ``Contact.contains_point``, the first owner keeps a cell, and
    a contact that covers no centre takes the cell under its centroid.
    Returns the ``(nx, ny)`` owner array; raises ``ValueError`` when a
    contact owns no cell."""
    hx, hy = layout.size_x / nx, layout.size_y / ny
    owner = np.full((nx, ny), -1)
    for idx, c in enumerate(layout.contacts):
        # centres outside this window of cells lie outside the contact
        rows = range(max(int(c.x / hx) - 1, 0), min(int(c.x2 / hx) + 2, nx))
        cols = range(max(int(c.y / hy) - 1, 0), min(int(c.y2 / hy) + 2, ny))
        cells = [
            (i, j)
            for i in rows
            for j in cols
            if c.contains_point((i + 0.5) * hx, (j + 0.5) * hy)
        ]
        if not cells:
            cx, cy = c.centroid
            cells = [(min(int(cx / hx), nx - 1), min(int(cy / hy), ny - 1))]
        for i, j in cells:
            if owner[i, j] == -1:
                owner[i, j] = idx
    if not np.isin(np.arange(layout.n_contacts), owner).all():
        raise ValueError("a contact owns no cell")
    return owner


def _random_layout(rng, n, size=64.0):
    """Contacts on a quarter-cell lattice, so edges often fall exactly on cell
    centres, with a sub-cell contact, a touching pair and an overlapping pair
    in every layout."""
    h = size / n
    lattice = h / 4.0

    def place(w, hgt):
        x = lattice * int(rng.integers(0, int((size - w) / lattice) + 1))
        y = lattice * int(rng.integers(0, int((size - hgt) / lattice) + 1))
        return Contact(min(x, size - w), min(y, size - hgt), w, hgt)

    def side():
        return lattice * int(rng.integers(1, n + 2))

    contacts = [place(*(rng.uniform(0.05, 0.9, size=2) * h))]
    for _ in range(int(rng.integers(1, 6))):
        contacts.append(place(side(), side()))
    left = place(side(), side())
    right = Contact(min(left.x2, size - left.width), left.y, left.width, left.height)
    over = place(side() + h, side() + h)
    inner = Contact(over.x + h, over.y + h, over.width, over.height)
    contacts += [left, right, over]
    if inner.x2 <= size and inner.y2 <= size:
        contacts.append(inner)
    order = rng.permutation(len(contacts))
    return ContactLayout([contacts[k] for k in order], size, size)


def _assert_both_grids_follow_the_rule(layout, nx, ny):
    profile = SubstrateProfile.two_layer_example(size=layout.size_x)
    try:
        expected = _reference_owners(layout, nx, ny)
    except ValueError:
        with pytest.raises(ValueError, match="owns no grid cell"):
            PanelGrid(layout, nx, ny)
        with pytest.raises(ValueError, match="owns no grid cell"):
            Grid3D(layout, profile, nx, ny, 1)
        return False
    assert np.array_equal(PanelGrid(layout, nx, ny).panel_to_contact, expected.ravel())
    assert np.array_equal(Grid3D(layout, profile, nx, ny, 1).top_contact_owner, expected)
    return True


class TestOwnershipRule:
    """``PanelGrid.panel_to_contact`` and ``Grid3D.top_contact_owner`` both
    come from one vectorised rule; hold it to the brute-force reference."""

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_random_layouts_match_brute_force(self, n):
        rng = np.random.default_rng(n)
        outcomes = [
            _assert_both_grids_follow_the_rule(_random_layout(rng, n), n, n)
            for _ in range(30)
        ]
        # layouts that assign and layouts where a contact loses every cell
        assert any(outcomes) and not all(outcomes)

    def test_contact_losing_every_cell_to_an_earlier_one_is_rejected(self):
        outer = Contact(8.0, 8.0, 16.0, 16.0)
        for covered in (Contact(12.0, 12.0, 4.0, 4.0), Contact(12.1, 12.1, 0.5, 0.5)):
            layout = ContactLayout([outer, covered], 64.0, 64.0)
            assert not _assert_both_grids_follow_the_rule(layout, 16, 16)

    @pytest.mark.parametrize("n_side", [8, 16, 32])
    def test_paper_layouts_match_brute_force(self, n_side):
        for family in (paper_examples, chapter4_examples):
            for name, cfg in family(n_side=n_side).items():
                layout = cfg.build_layout()
                grid = PanelGrid.for_layout(layout, max_panels=cfg.max_panels)
                assert _assert_both_grids_follow_the_rule(layout, grid.nx, grid.ny), name


class TestAssignment:
    def test_every_contact_gets_panels(self, grid):
        assert np.all(_panel_counts(grid) > 0)

    def test_panel_owners_consistent(self, grid):
        # every owned panel's centre lies inside its owner (no contact snaps here)
        centres = grid.panel_centers()
        for panel in grid.all_contact_panels:
            contact = grid.layout.contacts[grid.panel_to_contact[panel]]
            assert contact.contains_point(*centres[panel])

    def test_contact_panel_count_matches_area(self, grid):
        # a contact of side 8 on a 2-unit panel grid covers 4x4 panels
        assert np.all(_panel_counts(grid) == 16)

    def test_tiny_contact_snaps_to_nearest_panel(self):
        layout = ContactLayout([Contact(10.05, 10.05, 0.2, 0.2)], 64.0, 64.0)
        grid = PanelGrid(layout, 16, 16)
        # the centroid (10.15, 10.15) sits in panel (2, 2) of the 4-unit grid
        assert np.flatnonzero(grid.panel_to_contact == 0).tolist() == [2 * 16 + 2]

    @pytest.mark.parametrize("left_first", [True, False], ids=["left-first", "right-first"])
    def test_touching_contacts_shared_centre_goes_to_first_owner(self, left_first):
        # pitch 8 puts panel centres at x = 4, 12, 20, ...: both contacts cover x = 12
        left, right = Contact(0.0, 0.0, 12.0, 8.0), Contact(12.0, 0.0, 12.0, 8.0)
        contacts = [left, right] if left_first else [right, left]
        grid = PanelGrid(ContactLayout(contacts, 64.0, 64.0), 8, 8)
        # flat indices i * ny + j of the row-j = 0 panels centred at x = 4, 12, 20
        x4, x12, x20 = 0, grid.ny, 2 * grid.ny
        owned = [[x4, x12], [x20]] if left_first else [[x12, x20], [x4]]
        assert [np.flatnonzero(grid.panel_to_contact == c).tolist() for c in (0, 1)] == owned
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
        for idx in range(grid.layout.n_contacts):
            assert np.all(on_panels[grid.panel_to_contact == idx] == values[idx])
        assert np.count_nonzero(on_panels) == grid.n_contact_panels
        # summing panel values counts each panel once
        sizes = _panel_counts(grid)
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
        assert np.allclose(inc.sum(axis=1), _panel_counts(grid))
        assert np.allclose(inc.sum(axis=0), 1.0)

    def test_panel_centers(self, grid):
        centers = grid.panel_centers()
        assert centers.shape == (grid.n_panels, 2)
        assert centers[:, 0].min() == pytest.approx(grid.hx / 2)
        assert centers[:, 1].max() == pytest.approx(64.0 - grid.hy / 2)
