"""Tests for the layered-substrate eigenvalue recursion (Section 2.3.1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.substrate import Layer, SubstrateProfile
from repro.substrate.bem import (
    eigenvalue_coefficient_recursion,
    eigenvalue_table,
    mode_eigenvalue,
)


def uniform(depth=20.0, sigma=2.0, grounded=True):
    return SubstrateProfile.uniform(64.0, depth, sigma, grounded_backplane=grounded)


def scalar_table(n_modes_x, n_modes_y, profile):
    """The eigenvalue table as a loop of scalar :func:`mode_eigenvalue` calls."""
    m = np.arange(n_modes_x)[:, None] * np.pi / profile.size_x
    n = np.arange(n_modes_y)[None, :] * np.pi / profile.size_y
    gamma = np.sqrt(m**2 + n**2)
    table = np.array([mode_eigenvalue(float(g), profile) for g in gamma.ravel()])
    table[np.isinf(table)] = 0.0  # the floating uniform mode
    return table.reshape(gamma.shape)


THREE_LAYERS = [Layer(0.5, 1.0), Layer(10.0, 100.0), Layer(2.0, 0.1)]


class TestSingleLayerClosedForms:
    @pytest.mark.parametrize("gamma", [0.05, 0.3, 1.0, 4.0])
    def test_grounded_matches_tanh(self, gamma):
        prof = uniform()
        expected = np.tanh(gamma * prof.depth) / (prof.conductivities[0] * gamma)
        assert np.isclose(mode_eigenvalue(gamma, prof), expected, rtol=1e-12)

    @pytest.mark.parametrize("gamma", [0.05, 0.3, 1.0, 4.0])
    def test_floating_matches_coth(self, gamma):
        prof = uniform(grounded=False)
        expected = 1.0 / (np.tanh(gamma * prof.depth) * prof.conductivities[0] * gamma)
        assert np.isclose(mode_eigenvalue(gamma, prof), expected, rtol=1e-12)

    def test_uniform_mode_grounded_is_series_resistance(self):
        prof = SubstrateProfile(64, 64, [Layer(1.0, 2.0), Layer(3.0, 6.0)])
        assert np.isclose(mode_eigenvalue(0.0, prof), 0.5 + 0.5)

    def test_uniform_mode_floating_is_infinite(self):
        prof = uniform(grounded=False)
        assert np.isinf(mode_eigenvalue(0.0, prof))

    def test_large_gamma_limit_is_halfspace(self):
        # for gamma*d >> 1 the eigenvalue approaches 1/(sigma*gamma)
        prof = uniform(depth=40.0, sigma=3.0)
        gamma = 50.0
        assert np.isclose(mode_eigenvalue(gamma, prof), 1.0 / (3.0 * gamma), rtol=1e-10)

    def test_no_overflow_for_huge_gamma(self):
        prof = SubstrateProfile.two_layer_example()
        val = mode_eigenvalue(1e4, prof)
        assert np.isfinite(val) and val > 0


class TestMultiLayer:
    def test_matches_coefficient_recursion(self):
        prof = SubstrateProfile(
            64, 64, [Layer(0.5, 1.0), Layer(10.0, 100.0), Layer(2.0, 0.1)]
        )
        for gamma in [0.05, 0.2, 0.5, 1.0]:
            a = mode_eigenvalue(gamma, prof)
            b = eigenvalue_coefficient_recursion(gamma, prof)
            assert np.isclose(a, b, rtol=1e-8)

    def test_matches_coefficient_recursion_floating(self):
        prof = SubstrateProfile(
            64, 64, [Layer(1.0, 1.0), Layer(5.0, 10.0)], grounded_backplane=False
        )
        for gamma in [0.1, 0.4, 1.0]:
            assert np.isclose(
                mode_eigenvalue(gamma, prof),
                eigenvalue_coefficient_recursion(gamma, prof),
                rtol=1e-8,
            )

    def test_eigenvalues_positive_and_decay_with_gamma(self):
        prof = SubstrateProfile.two_layer_example()
        gammas = np.linspace(0.01, 10.0, 40)
        vals = np.array([mode_eigenvalue(g, prof) for g in gammas])
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 1e-12)  # non-increasing

    def test_more_conductive_substrate_has_smaller_eigenvalues(self):
        low = SubstrateProfile.uniform(64, 20.0, 1.0)
        high = SubstrateProfile.uniform(64, 20.0, 10.0)
        for gamma in [0.1, 1.0]:
            assert mode_eigenvalue(gamma, high) < mode_eigenvalue(gamma, low)


class TestEigenvalueTable:
    def test_shape_and_symmetric_in_mn_for_square_substrate(self):
        prof = SubstrateProfile.two_layer_example()
        table = eigenvalue_table(8, 8, prof)
        assert table.shape == (8, 8)
        assert np.allclose(table, table.T, rtol=1e-12)

    def test_floating_uniform_mode_entry_zeroed(self):
        prof = SubstrateProfile.two_layer_example(grounded_backplane=False)
        table = eigenvalue_table(4, 4, prof)
        assert table[0, 0] == 0.0
        assert np.all(table.ravel()[1:] > 0)


@pytest.mark.parametrize(
    "profile",
    [
        SubstrateProfile.two_layer_example(size=128.0, resistive_bottom=True),
        SubstrateProfile.two_layer_example(size=128.0, grounded_backplane=True),
        SubstrateProfile.two_layer_example(size=128.0, grounded_backplane=False),
        SubstrateProfile(128.0, 96.0, THREE_LAYERS, grounded_backplane=True),
        SubstrateProfile(128.0, 96.0, THREE_LAYERS, grounded_backplane=False),
    ],
    ids=[
        "two-layer-resistive-bottom",
        "two-layer-grounded",
        "two-layer-floating",
        "three-layer-grounded",
        "three-layer-floating",
    ],
)
def test_table_matches_scalar_recursion_at_128(profile):
    """The vectorised table is the scalar recursion, mode for mode."""
    table = eigenvalue_table(128, 128, profile)
    np.testing.assert_allclose(table, scalar_table(128, 128, profile), rtol=1e-15, atol=0)


@settings(max_examples=30, deadline=None)
@given(
    gamma=st.floats(min_value=1e-3, max_value=50.0),
    sigma1=st.floats(min_value=0.1, max_value=10.0),
    sigma2=st.floats(min_value=0.1, max_value=10.0),
    t1=st.floats(min_value=0.2, max_value=5.0),
    t2=st.floats(min_value=0.2, max_value=30.0),
    grounded=st.booleans(),
)
def test_property_eigenvalue_positive_and_bounded(gamma, sigma1, sigma2, t1, t2, grounded):
    """Eigenvalues are positive and bounded by the least-conductive half-space
    value, and the vectorised table equals the scalar recursion."""
    prof = SubstrateProfile(
        64, 64, [Layer(t1, sigma1), Layer(t2, sigma2)], grounded_backplane=grounded
    )
    lam = mode_eigenvalue(gamma, prof)
    assert lam > 0
    assert lam <= 1.0 / (min(sigma1, sigma2) * gamma) * (1.0 / np.tanh(gamma * (t1 + t2)) + 1e-9)
    table = eigenvalue_table(7, 4, prof)
    np.testing.assert_allclose(table, scalar_table(7, 4, prof), rtol=1e-15, atol=0)
    if not grounded:
        assert table[0, 0] == 0.0
