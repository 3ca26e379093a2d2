"""Contact geometry, layouts, panels and the multilevel square hierarchy."""

from .contact import Contact, ContactLayout
from .layouts import (
    alternating_size_grid,
    irregular_same_size,
    large_alternating_grid,
    large_mixed,
    mixed_shapes,
    regular_grid,
    ring_contact,
    two_square_clusters,
)
from .panels import PanelGrid
from .quadtree import SquareHierarchy

__all__ = [
    "Contact",
    "ContactLayout",
    "PanelGrid",
    "SquareHierarchy",
    "regular_grid",
    "irregular_same_size",
    "alternating_size_grid",
    "mixed_shapes",
    "large_alternating_grid",
    "large_mixed",
    "ring_contact",
    "two_square_clusters",
]
