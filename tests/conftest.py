"""Shared fixtures: small layouts, substrate profiles and cached conductance matrices.

The conductance matrices used as exact references are expensive to extract
(one black-box solve per contact), so they are session-scoped and kept small.
"""

from __future__ import annotations

import base64
import pickle

import numpy as np
import pytest

from repro import (
    DenseMatrixSolver,
    EigenfunctionSolver,
    SquareHierarchy,
    SubstrateProfile,
    alternating_size_grid,
    extract_dense,
    regular_grid,
)


@pytest.fixture(scope="session")
def small_layout():
    """8 x 8 regular grid of identical contacts (64 contacts)."""
    return regular_grid(n_side=8, size=128.0, fill=0.5)


@pytest.fixture(scope="session")
def small_profile():
    """Two-layer profile with the resistive bottom layer (slow coupling decay)."""
    return SubstrateProfile.two_layer_example(size=128.0, resistive_bottom=True)


@pytest.fixture(scope="session")
def grounded_profile():
    """Two-layer profile with a grounded backplane."""
    return SubstrateProfile.two_layer_example(size=128.0, grounded_backplane=True)


@pytest.fixture(scope="session")
def small_solver(small_layout, small_profile):
    """Eigenfunction black-box solver for the small layout."""
    return EigenfunctionSolver(small_layout, small_profile, max_panels=64)


@pytest.fixture(scope="session")
def small_g(small_solver):
    """Exact dense conductance matrix of the small layout (64 x 64)."""
    return extract_dense(small_solver, symmetrize=True)


@pytest.fixture(scope="session")
def small_hierarchy(small_layout):
    return SquareHierarchy(small_layout, max_level=3)


@pytest.fixture(scope="session")
def small_dense_solver(small_g, small_layout):
    """Exact-G black box (used to study sparsification in isolation)."""
    return DenseMatrixSolver(small_g, small_layout)


@pytest.fixture(scope="session")
def medium_layout():
    """16 x 16 regular grid (256 contacts) — large enough for real sparsification."""
    return regular_grid(n_side=16, size=128.0, fill=0.5)


@pytest.fixture(scope="session")
def medium_g(medium_layout, small_profile):
    solver = EigenfunctionSolver(medium_layout, small_profile, max_panels=128)
    return extract_dense(solver, symmetrize=True)


@pytest.fixture(scope="session")
def medium_hierarchy(medium_layout):
    return SquareHierarchy(medium_layout, max_level=4)


@pytest.fixture(scope="session")
def alternating_layout():
    """16 x 16 alternating-size grid — the wavelet method's difficult case."""
    return alternating_size_grid(n_side=16, size=128.0)


@pytest.fixture(scope="session")
def alternating_g(alternating_layout, small_profile):
    solver = EigenfunctionSolver(alternating_layout, small_profile, max_panels=128)
    return extract_dense(solver, symmetrize=True)


@pytest.fixture(scope="session")
def alternating_hierarchy(alternating_layout):
    return SquareHierarchy(alternating_layout, max_level=4)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class _Tripwire:
    """Unpickling this creates ``path``: proof that a payload was deserialised."""

    def __init__(self, path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


@pytest.fixture
def tripwire_pickle(tmp_path):
    """``(base64 pickle, sentinel path)``: the sentinel file appears only if
    the pickle is ever loaded (old-release payloads must never be)."""
    sentinel = tmp_path / "unpickled"
    return base64.b64encode(pickle.dumps(_Tripwire(sentinel))).decode(), sentinel
