"""Cross-cutting property-based tests on the core data structures."""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro import (
    DenseMatrixSolver,
    EigenfunctionSolver,
    SubstrateProfile,
    check_conductance_properties,
    extract_dense,
)
from repro.core.sparsified import SparsifiedConductance
from repro.geometry import Contact, SquareHierarchy, regular_grid


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(0.0, 100.0), y=st.floats(0.0, 100.0),
    w=st.floats(0.5, 30.0), h=st.floats(0.5, 30.0),
    pitch=st.floats(1.0, 16.0),
)
def test_property_gridline_split_preserves_area_and_bounds(x, y, w, h, pitch):
    """Splitting at gridlines preserves total area and never leaves the original box."""
    c = Contact(x, y, w, h)
    pieces = c.split_at_gridlines(pitch)
    assert np.isclose(sum(p.area for p in pieces), c.area, rtol=1e-9)
    for p in pieces:
        assert p.x >= c.x - 1e-9 and p.x2 <= c.x2 + 1e-9
        assert p.y >= c.y - 1e-9 and p.y2 <= c.y2 + 1e-9
        # every piece fits in one gridline cell
        assert np.floor(p.x / pitch + 1e-9) == np.floor((p.x2 - 1e-9) / pitch) or p.width <= pitch + 1e-9


@settings(max_examples=20, deadline=None)
@given(n_side=st.sampled_from([4, 8, 16]))
def test_property_hierarchy_levels_partition_contacts(n_side):
    """At every level the non-empty squares partition the full contact set."""
    layout = regular_grid(n_side=n_side, size=128.0, fill=0.5)
    hier = SquareHierarchy(layout, max_level=max(2, n_side.bit_length() - 1))
    for index in hier.levels:
        assert np.array_equal(np.sort(index.contacts), np.arange(layout.n_contacts))
        assert np.array_equal(index.contact_ptr[[0, -1]], [0, layout.n_contacts])
        assert np.all(np.diff(index.contact_ptr) > 0)  # only squares that hold a contact


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), scale=st.floats(0.1, 10.0))
def test_property_sparsified_apply_is_linear_and_symmetric(seed, scale):
    """Q Gw Q' with symmetric Gw is a symmetric linear operator."""
    rng = np.random.default_rng(seed)
    n = 12
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    gw = rng.standard_normal((n, n))
    gw = scale * 0.5 * (gw + gw.T)
    rep = SparsifiedConductance(sparse.csr_matrix(q), sparse.csr_matrix(gw))
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    assert np.isclose(y @ rep.apply(x), x @ rep.apply(y), rtol=1e-9, atol=1e-9)
    assert np.allclose(rep.apply(2.0 * x + y), 2.0 * rep.apply(x) + rep.apply(y), rtol=1e-9)


@settings(max_examples=15, deadline=None)
@given(
    n_keep=st.integers(3, 10),
    seed=st.integers(0, 100),
)
def test_property_layout_subset_preserves_contacts(n_keep, seed):
    layout = regular_grid(n_side=4, size=64.0)
    rng = np.random.default_rng(seed)
    idx = rng.choice(16, size=min(n_keep, 16), replace=False)
    sub = layout.subset(idx.tolist())
    assert sub.n_contacts == idx.size
    for k, i in enumerate(idx):
        assert sub[k] == layout[int(i)]


# ------------------------------------------------- batched extraction engine
def _batched_g(n_side: float, fill: float, grounded: bool) -> np.ndarray:
    layout = regular_grid(n_side=n_side, size=64.0, fill=fill)
    profile = SubstrateProfile.two_layer_example(
        size=64.0, grounded_backplane=grounded
    )
    solver = EigenfunctionSolver(layout, profile, max_panels=32)
    return extract_dense(solver, symmetrize=True)


@settings(max_examples=8, deadline=None)
@given(
    n_side=st.sampled_from([3, 4]),
    fill=st.sampled_from([0.4, 0.5, 0.6]),
    grounded=st.booleans(),
)
def test_property_batched_extraction_satisfies_conductance_structure(
    n_side, fill, grounded
):
    """Section 2.4 structure must survive the batched (solve_many) path.

    ``G`` extracted entirely through the multi-RHS engine keeps symmetry,
    positive diagonal, non-positive off-diagonal, diagonal dominance, and the
    rank-one deficiency of the floating-backplane case.
    """
    g = _batched_g(n_side, fill, grounded)
    checks = check_conductance_properties(g, grounded_backplane=grounded)
    assert all(checks.values()), checks


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 500), k=st.integers(1, 6))
def test_property_solve_many_matches_matrix_action(seed, k):
    """For an exact black box, solve_many(V) is exactly G V for any block."""
    rng = np.random.default_rng(seed)
    layout = regular_grid(n_side=3, size=64.0, fill=0.5)
    n = layout.n_contacts
    g = rng.standard_normal((n, n))
    g = g @ g.T + n * np.eye(n)
    solver = DenseMatrixSolver(g, layout)
    v = rng.standard_normal((n, k))
    assert np.allclose(solver.solve_many(v), g @ v, rtol=1e-12, atol=1e-12)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 200), grounded=st.booleans())
def test_property_batched_extraction_permutation_equivariant(seed, grounded):
    """Relabelling contacts permutes G accordingly (no hidden order state).

    Extracting through ``solve_many`` on a permuted unit block must equal the
    permutation of the extracted ``G`` — this pins down that the batched RHS
    construction carries no dependence on submission order.
    """
    layout = regular_grid(n_side=3, size=64.0, fill=0.5)
    profile = SubstrateProfile.two_layer_example(
        size=64.0, grounded_backplane=grounded
    )
    solver = EigenfunctionSolver(layout, profile, max_panels=32, rtol=1e-10)
    n = layout.n_contacts
    perm = np.random.default_rng(seed).permutation(n)
    g = extract_dense(solver)
    basis = np.zeros((n, n))
    basis[perm, np.arange(n)] = 1.0
    g_perm = solver.solve_many(basis)
    assert np.allclose(g_perm, g[:, perm], rtol=0.0, atol=1e-7 * np.abs(g).max())
