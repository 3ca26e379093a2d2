"""Brute-force geometry oracles the layout and panel tests are held to."""

from __future__ import annotations

from itertools import combinations


def contains_point(contact, px: float, py: float) -> bool:
    """True if ``(px, py)`` lies inside ``contact`` (closed rectangle)."""
    return contact.x <= px <= contact.x2 and contact.y <= py <= contact.y2


def has_overlaps(layout) -> bool:
    """True if any two contacts of ``layout`` overlap with positive area."""
    return any(a.overlaps(b) for a, b in combinations(layout.contacts, 2))
