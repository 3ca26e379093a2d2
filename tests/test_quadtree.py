"""Tests for the multilevel square hierarchy (interaction lists, locality)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Contact, ContactLayout, SquareHierarchy, regular_grid


@pytest.fixture(scope="module")
def hier():
    return SquareHierarchy(regular_grid(n_side=8, size=128.0, fill=0.5), max_level=3)


class TestConstruction:
    def test_every_contact_assigned_once(self, hier):
        finest = hier.squares_at_level(hier.max_level)
        all_contacts = np.sort(np.concatenate([s.contact_indices for s in finest]))
        assert np.array_equal(all_contacts, np.arange(hier.layout.n_contacts))

    def test_root_square_holds_everything(self, hier):
        root = hier.squares_at_level(0)
        assert len(root) == 1
        assert root[0].n_contacts == hier.layout.n_contacts

    def test_parent_contains_children(self, hier):
        for level in range(1, hier.max_level + 1):
            for sq in hier.squares_at_level(level):
                parent = hier.parent(sq)
                assert parent is not None
                assert set(sq.contact_indices) <= set(parent.contact_indices)

    def test_children_partition_parent(self, hier):
        for level in range(0, hier.max_level):
            for sq in hier.squares_at_level(level):
                kids = hier.children(sq)
                union = np.sort(np.concatenate([k.contact_indices for k in kids]))
                assert np.array_equal(union, sq.contact_indices)

    def test_contact_crossing_boundary_rejected(self):
        layout = ContactLayout([Contact(30.0, 30.0, 10.0, 10.0)], 128.0, 128.0)
        with pytest.raises(ValueError):
            SquareHierarchy(layout, max_level=3)  # square side 16, contact crosses x=32

    def test_auto_level_selection(self):
        layout = regular_grid(n_side=8, size=128.0)
        hier = SquareHierarchy(layout, max_level=None, target_per_square=4)
        assert hier.max_level >= 2

    def test_max_level_too_small_rejected(self):
        with pytest.raises(ValueError):
            SquareHierarchy(regular_grid(n_side=4), max_level=1)


class TestNeighbourhoods:
    def test_neighbors_are_adjacent(self, hier):
        for sq in hier.squares_at_level(3):
            for nb in hier.neighbors(sq):
                assert nb.level == sq.level
                assert max(abs(nb.i - sq.i), abs(nb.j - sq.j)) == 1

    def test_interactive_list_is_disjoint_from_local(self, hier):
        for sq in hier.squares_at_level(3):
            local_keys = {s.key for s in hier.local_squares(sq)}
            inter_keys = {s.key for s in hier.interactive_squares(sq)}
            assert not (local_keys & inter_keys)

    def test_interactive_parents_are_local_to_parent(self, hier):
        for sq in hier.squares_at_level(3):
            parent = hier.parent(sq)
            parent_local = {s.key for s in hier.local_squares(parent)}
            for d in hier.interactive_squares(sq):
                assert hier.parent(d).key in parent_local

    def test_interactive_symmetry(self, hier):
        for sq in hier.squares_at_level(3):
            for d in hier.interactive_squares(sq):
                back = {s.key for s in hier.interactive_squares(d)}
                assert sq.key in back

    def test_levels_below_two_have_empty_interaction_lists(self, hier):
        for level in (0, 1):
            for sq in hier.squares_at_level(level):
                assert hier.interactive_squares(sq) == ()

    def test_interactive_and_local_covers_parent_local_children(self, hier):
        for sq in hier.squares_at_level(3):
            parent = hier.parent(sq)
            expected = set()
            for pl in hier.local_squares(parent):
                expected.update(k.key for k in hier.children(pl))
            got = {s.key for s in hier.interactive_and_local(sq)}
            assert got == expected

    def test_memoised_answers_cannot_be_mutated(self, hier):
        sq = hier.get((3, 2, 2))
        for relation in (
            hier.local_squares,
            hier.interactive_squares,
            hier.interactive_and_local,
            hier.target_squares,
        ):
            first = relation(sq)
            keys = [s.key for s in first]
            with pytest.raises(AttributeError):
                first.append(sq)
            with pytest.raises(TypeError):
                first[0] = hier.get((3, 7, 7))
            assert relation(sq) is first
            assert [s.key for s in relation(sq)] == keys

    def test_target_squares_are_descendants_of_local_squares(self, hier):
        for level in range(hier.max_level + 1):
            for source in hier.squares_at_level(level):
                targets = hier.target_squares(source)
                expected = set()
                for sq in hier.squares.values():
                    if sq.level < level:
                        continue
                    _, ai, aj = hier.ancestor_key(sq, level)
                    if abs(ai - source.i) <= 1 and abs(aj - source.j) <= 1:
                        expected.add(sq.key)
                assert len(targets) == len(expected)
                assert {sq.key for sq in targets} == expected
                # breadth first: the source's level, then each finer level
                assert [sq.level for sq in targets] == sorted(sq.level for sq in targets)
                assert targets[: len(hier.local_squares(source))] == hier.local_squares(source)

    def test_well_separated_cross_level(self, hier):
        coarse = hier.get((2, 0, 0))
        fine_far = hier.get((3, 7, 7))
        fine_near = hier.get((3, 1, 1))
        assert hier.well_separated(coarse, fine_far)
        assert not hier.well_separated(coarse, fine_near)
        # symmetric in argument order
        assert hier.well_separated(fine_far, coarse)

    def test_are_local_requires_same_level(self, hier):
        a = hier.get((2, 0, 0))
        b = hier.get((3, 0, 0))
        with pytest.raises(ValueError):
            hier.are_local(a, b)

    def test_ancestor_key(self, hier):
        sq = hier.get((3, 5, 6))
        assert hier.ancestor_key(sq, 2) == (2, 2, 3)
        assert hier.ancestor_key(sq, 0) == (0, 0, 0)
        with pytest.raises(ValueError):
            hier.ancestor_key(hier.get((2, 0, 0)), 3)


class TestUtilities:
    def test_contacts_in_union(self, hier):
        squares = list(hier.squares_at_level(3))[:3]
        union = hier.contacts_in(squares)
        manual = np.unique(np.concatenate([s.contact_indices for s in squares]))
        assert np.array_equal(union, manual)

    def test_finest_square_of_contact(self, hier):
        for idx in range(0, hier.layout.n_contacts, 7):
            sq = hier.finest_square_of_contact(idx)
            assert idx in sq.contact_indices

    def test_statistics(self, hier):
        stats = hier.statistics()
        assert stats["n_contacts"] == 64
        assert stats["max_level"] == 3


@settings(max_examples=25, deadline=None)
@given(
    n_side=st.sampled_from([8, 16]),
    level=st.integers(min_value=2, max_value=3),
)
def test_property_interaction_plus_local_equals_parent_neighborhood(n_side, level):
    """For any square, I_s and L_s partition the children of the parent's local squares."""
    max_level = n_side.bit_length() - 1
    hier = SquareHierarchy(regular_grid(n_side=n_side, size=128.0), max_level=max_level)
    for sq in hier.squares_at_level(level):
        local = {s.key for s in hier.local_squares(sq)}
        inter = {s.key for s in hier.interactive_squares(sq)}
        parent = hier.parent(sq)
        expected = set()
        for pl in hier.local_squares(parent):
            expected.update(c.key for c in hier.children(pl))
        assert local | inter == expected
        assert not (local & inter)
