"""Tests for the multilevel square hierarchy (interaction lists, locality)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from square_reference import ReferenceHierarchy, quadrant_order_key

from repro.geometry import Contact, ContactLayout, SquareHierarchy, regular_grid


@pytest.fixture(scope="module")
def hier():
    return SquareHierarchy(regular_grid(n_side=8, size=128.0, fill=0.5), max_level=3)


def contacts(index, s):
    return index.contacts[index.contact_ptr[s] : index.contact_ptr[s + 1]]


def related(index, relation, s):
    ptr, squares = index.members[relation]
    return squares[ptr[s] : ptr[s + 1]]


def kids_of(index, s):
    ptr, kids = index.children
    return kids[ptr[s] : ptr[s + 1]]


def keys(index, squares):
    return [(index.level, int(i), int(j)) for i, j in index.ij[squares]]


def assert_matches_reference(hier, ref):
    """Every array of every level, and the target pairs, equal the per-square reference."""
    numbering = {}
    for index in hier.levels:
        squares = ref.squares_at_level(index.level)
        assert keys(index, np.arange(index.n_squares)) == squares
        numbering.update({key: len(numbering) + s for s, key in enumerate(squares)})
        for s, key in enumerate(squares):
            assert np.array_equal(contacts(index, s), ref.squares[key])
            assert np.all(index.owner[ref.squares[key]] == s)
            below = hier.levels[index.level + 1] if index.level < hier.max_level else None
            assert (keys(below, kids_of(index, s)) if below else []) == ref.children(key)
            if index.level:
                parent = hier.levels[index.level - 1]
                assert keys(parent, [index.parent[s]]) == [ref.parent(key)]
            for relation, listed in (
                ("local", ref.local_squares),
                ("interactive", ref.interactive_squares),
                ("p", ref.interactive_and_local),
            ):
                assert keys(index, related(index, relation, s)) == listed(key)
        order = sorted(range(len(squares)), key=lambda s: quadrant_order_key(squares[s]))
        assert index.quadrant.tolist() == order
    source, target = hier.target_pairs()
    want = {(numbering[key], numbering[t]) for key in ref.squares for t in ref.target_squares(key)}
    assert len(want) == source.size
    assert set(zip(source.tolist(), target.tolist())) == want


class TestConstruction:
    def test_every_contact_assigned_once(self, hier):
        finest = hier.levels[-1]
        assert np.array_equal(np.sort(finest.contacts), np.arange(hier.layout.n_contacts))
        assert np.array_equal(finest.contacts[finest.contact_ptr[finest.owner]], np.arange(64))

    def test_root_square_holds_everything(self, hier):
        root = hier.levels[0]
        assert root.n_squares == 1
        assert np.array_equal(root.contacts, np.arange(hier.layout.n_contacts))

    def test_parent_contains_children(self, hier):
        for index in hier.levels[1:]:
            above = hier.levels[index.level - 1]
            for s in range(index.n_squares):
                assert set(contacts(index, s)) <= set(contacts(above, index.parent[s]))

    def test_children_partition_parent(self, hier):
        for index in hier.levels[:-1]:
            below = hier.levels[index.level + 1]
            for s in range(index.n_squares):
                union = np.sort(np.concatenate([contacts(below, k) for k in kids_of(index, s)]))
                assert np.array_equal(union, contacts(index, s))

    def test_contact_crossing_boundary_rejected(self):
        inside = Contact(1.0, 1.0, 4.0, 4.0)
        crossing = [Contact(30.0, 30.0, 10.0, 10.0), Contact(60.0, 2.0, 10.0, 4.0)]
        layout = ContactLayout([inside, *crossing], 128.0, 128.0)
        # square side 16: contact 1 crosses x=32, contact 2 crosses x=64
        with pytest.raises(ValueError, match=r"^contact 1 \(.*crosses a finest-level square"):
            SquareHierarchy(layout, max_level=3)
        loose = SquareHierarchy(layout, max_level=3, strict_containment=False)
        assert loose.levels[-1].contacts.size == 3

    def test_max_level_too_small_rejected(self):
        with pytest.raises(ValueError):
            SquareHierarchy(regular_grid(n_side=4), max_level=1)


class TestNeighbourhoods:
    def test_neighbors_are_adjacent(self, hier):
        index = hier.levels[3]
        for s in range(index.n_squares):
            local = related(index, "local", s)
            assert local[0] == s
            gap = np.abs(index.ij[local[1:]] - index.ij[s]).max(axis=1)
            assert np.all(gap == 1)

    def test_interactive_list_is_disjoint_from_local(self, hier):
        index = hier.levels[3]
        for s in range(index.n_squares):
            assert not set(related(index, "local", s)) & set(related(index, "interactive", s))

    def test_interactive_parents_are_local_to_parent(self, hier):
        index, above = hier.levels[3], hier.levels[2]
        for s in range(index.n_squares):
            parent_local = set(related(above, "local", index.parent[s]))
            assert set(index.parent[related(index, "interactive", s)]) <= parent_local

    def test_interactive_symmetry(self, hier):
        index = hier.levels[3]
        for s in range(index.n_squares):
            for d in related(index, "interactive", s):
                assert s in related(index, "interactive", d)

    def test_levels_below_two_have_empty_interaction_lists(self, hier):
        for index in hier.levels[:2]:
            assert index.members["interactive"][1].size == 0

    def test_interactive_and_local_covers_parent_local_children(self, hier):
        index, above = hier.levels[3], hier.levels[2]
        for s in range(index.n_squares):
            local = related(above, "local", index.parent[s])
            expected = {k for q in local for k in kids_of(above, q)}
            got = related(index, "p", s)
            assert set(got) == expected
            assert got.tolist() == [*related(index, "local", s), *related(index, "interactive", s)]

    def test_target_squares_are_descendants_of_local_squares(self, hier):
        source, target = hier.target_pairs()
        first = np.cumsum([0] + [index.n_squares for index in hier.levels])
        level_of = np.repeat(np.arange(len(hier.levels)), np.diff(first))
        cells = np.concatenate([index.ij for index in hier.levels])
        ls, lt = level_of[source], level_of[target]
        assert np.all(lt >= ls)
        ancestor = cells[target] >> (lt - ls)[:, None]
        assert np.all(np.abs(ancestor - cells[source]).max(axis=1) <= 1)
        # every square is its own target, once
        assert np.array_equal(np.sort(source[source == target]), np.arange(first[-1]))
        assert len(set(zip(source.tolist(), target.tolist()))) == source.size


def test_arrays_match_reference_on_regular_grid(hier):
    assert_matches_reference(hier, ReferenceHierarchy(hier.layout, 3))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    cells=st.sampled_from([4, 8, 16, 32]),
    depth=st.integers(min_value=2, max_value=5),
    fill=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**16),
    strict=st.booleans(),
)
def test_property_arrays_match_reference(cells, depth, fill, seed, strict):
    """Random layouts with empty squares and squares on the surface edge."""
    rng = np.random.default_rng(seed)
    size = 128.0
    pitch = size / cells
    occupied = np.flatnonzero(rng.random(cells * cells) < fill)
    if occupied.size == 0:
        occupied = np.array([cells * cells - 1])
    rng.shuffle(occupied)
    side = rng.uniform(0.1, 0.9, size=(occupied.size, 2)) * pitch
    corner = np.stack([occupied // cells, occupied % cells], axis=1) * pitch
    corner += rng.uniform(0, 1, size=side.shape) * (pitch - side)
    layout = ContactLayout(
        [Contact(x, y, w, h) for (x, y), (w, h) in zip(corner, side)], size, size
    )
    try:
        ref = ReferenceHierarchy(layout, depth, strict_containment=strict)
    except ValueError as exc:
        first = int(str(exc).split()[1])
        with pytest.raises(ValueError, match=rf"^contact {first} "):
            SquareHierarchy(layout, max_level=depth, strict_containment=strict)
        return
    hier = SquareHierarchy(layout, max_level=depth, strict_containment=strict)
    assert_matches_reference(hier, ref)


@settings(max_examples=25, deadline=None)
@given(
    n_side=st.sampled_from([8, 16]),
    level=st.integers(min_value=2, max_value=3),
)
def test_property_interaction_plus_local_equals_parent_neighborhood(n_side, level):
    """For any square, I_s and L_s partition the children of the parent's local squares."""
    max_level = n_side.bit_length() - 1
    hier = SquareHierarchy(regular_grid(n_side=n_side, size=128.0), max_level=max_level)
    index, above = hier.levels[level], hier.levels[level - 1]
    for s in range(index.n_squares):
        local = set(related(index, "local", s))
        inter = set(related(index, "interactive", s))
        expected = {k for q in related(above, "local", index.parent[s]) for k in kids_of(above, q)}
        assert local | inter == expected
        assert not (local & inter)
