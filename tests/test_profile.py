"""Tests for the layered substrate profile."""

import numpy as np
import pytest

from repro.substrate import Layer, SubstrateProfile


class TestLayer:
    def test_valid(self):
        layer = Layer(2.0, 10.0)
        assert layer.thickness == 2.0 and layer.conductivity == 10.0

    @pytest.mark.parametrize("t,s", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_invalid(self, t, s):
        with pytest.raises(ValueError):
            Layer(t, s)


class TestSubstrateProfile:
    def test_depth_and_arrays(self):
        prof = SubstrateProfile(10, 10, [Layer(1.0, 1.0), Layer(3.0, 100.0)])
        assert prof.depth == 4.0
        assert prof.n_layers == 2
        assert np.allclose(prof.conductivities, [1.0, 100.0])
        assert np.allclose(prof.thicknesses, [1.0, 3.0])

    def test_requires_layers(self):
        with pytest.raises(ValueError):
            SubstrateProfile(10, 10, [])

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SubstrateProfile(0, 10, [Layer(1, 1)])

    def test_two_layer_example(self):
        prof = SubstrateProfile.two_layer_example(size=128.0)
        assert prof.size_x == 128.0
        assert np.isclose(prof.depth, 40.0)
        assert prof.conductivities[1] / prof.conductivities[0] == pytest.approx(100.0)

    def test_two_layer_example_resistive_bottom(self):
        prof = SubstrateProfile.two_layer_example(resistive_bottom=True)
        assert prof.n_layers == 3
        assert prof.grounded_backplane
        assert prof.conductivities[-1] < prof.conductivities[0]
        assert np.isclose(prof.depth, 40.0)

    def test_uniform(self):
        prof = SubstrateProfile.uniform(64.0, 20.0, 5.0)
        assert prof.n_layers == 1
        assert prof.depth == 20.0
