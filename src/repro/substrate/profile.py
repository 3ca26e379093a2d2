"""Layered substrate profiles.

The substrate is a rectangular block of Ohmic material made of horizontal
layers, each with its own conductivity (Figure 1-1).  Contacts sit on the top
surface (z = 0); the bottom surface (z = -d) either carries a grounded
backplane contact or is floating (zero normal current).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Layer", "SubstrateProfile"]


@dataclass(frozen=True)
class Layer:
    """One substrate layer.

    Parameters
    ----------
    thickness:
        Layer thickness (same length unit as the lateral dimensions).
    conductivity:
        Layer conductivity ``sigma`` (1 / (resistivity)).
    """

    thickness: float
    conductivity: float

    def __post_init__(self) -> None:
        if self.thickness <= 0:
            raise ValueError("layer thickness must be positive")
        if self.conductivity <= 0:
            raise ValueError("layer conductivity must be positive")


class SubstrateProfile:
    """Layered substrate description.

    Layers are listed **from the top surface down** (layer 0 touches the
    contacts).  The total thickness is the sum of layer thicknesses.

    Parameters
    ----------
    size_x, size_y:
        Lateral dimensions ``a`` and ``b``.
    layers:
        Layers from top to bottom.
    grounded_backplane:
        True for a grounded backplane contact covering the bottom surface,
        False for a floating (insulating) bottom.
    """

    def __init__(
        self,
        size_x: float,
        size_y: float,
        layers: Sequence[Layer],
        grounded_backplane: bool = True,
    ) -> None:
        if size_x <= 0 or size_y <= 0:
            raise ValueError("substrate dimensions must be positive")
        if not layers:
            raise ValueError("at least one layer is required")
        self.size_x = float(size_x)
        self.size_y = float(size_y)
        self.layers = tuple(layers)
        self.grounded_backplane = bool(grounded_backplane)

    # ------------------------------------------------------------- properties
    @property
    def cache_key(self) -> tuple:
        """Hashable identity of the physical profile.

        Two profiles with equal keys produce identical operator eigenvalues;
        part of the solvers' direct-factor keys in
        :mod:`repro.substrate.factor_cache`, so two solvers over the same
        physics share one factor.
        """
        return (
            self.size_x,
            self.size_y,
            self.grounded_backplane,
            tuple((layer.thickness, layer.conductivity) for layer in self.layers),
        )

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def depth(self) -> float:
        """Total substrate thickness ``d``."""
        return float(sum(layer.thickness for layer in self.layers))

    @property
    def conductivities(self) -> np.ndarray:
        """Conductivities from top to bottom."""
        return np.array([layer.conductivity for layer in self.layers])

    @property
    def thicknesses(self) -> np.ndarray:
        """Thicknesses from top to bottom."""
        return np.array([layer.thickness for layer in self.layers])

    def interface_depths(self) -> np.ndarray:
        """Depths (positive, measured from the top) of the layer interfaces.

        For ``n`` layers there are ``n - 1`` interfaces; the bottom surface is
        not included.
        """
        return np.cumsum(self.thicknesses)[:-1]

    def conductivity_at_depth(self, depth: float) -> float:
        """Conductivity of the layer containing the point ``z = -depth``."""
        if depth < 0 or depth > self.depth + 1e-12:
            raise ValueError("depth outside the substrate")
        acc = 0.0
        for layer in self.layers:
            acc += layer.thickness
            if depth <= acc + 1e-12:
                return layer.conductivity
        return self.layers[-1].conductivity

    def vertical_resistance_per_area(self) -> float:
        """Series resistance per unit area through the whole stack.

        For a grounded backplane this is ``lambda_00`` of the eigenfunction
        expansion (uniform current mode); see Section 2.3.1.
        """
        return float(np.sum(self.thicknesses / self.conductivities))

    # ----------------------------------------------------------- constructors
    @classmethod
    def two_layer_example(
        cls,
        size: float = 128.0,
        grounded_backplane: bool = False,
        resistive_bottom: bool = False,
    ) -> "SubstrateProfile":
        """The two-layer profile used throughout the paper's evaluation.

        Section 3.7: "a two-layer substrate with the bottom-layer conductivity
        100 times the top-layer conductivity", dimensions 128 x 128 x 40 with
        the layer interface at z = -0.5.  When ``resistive_bottom`` is True a
        thin layer of one-tenth the top conductivity is inserted above the
        backplane to emulate the floating-backplane behaviour with a grounded
        backplane (the trick the paper uses with QuickSub).
        """
        sigma_top = 1.0
        layers = [
            Layer(0.5, sigma_top),
            Layer(38.5 if resistive_bottom else 39.5, 100.0 * sigma_top),
        ]
        if resistive_bottom:
            layers.append(Layer(1.0, 0.1 * sigma_top))
            grounded_backplane = True
        return cls(size, size, layers, grounded_backplane=grounded_backplane)

    @classmethod
    def uniform(
        cls,
        size: float,
        depth: float,
        conductivity: float = 1.0,
        grounded_backplane: bool = True,
    ) -> "SubstrateProfile":
        """Single uniform layer — handy for analytic checks."""
        return cls(size, size, [Layer(depth, conductivity)], grounded_backplane)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        sigmas = ", ".join(f"{layer.conductivity:g}" for layer in self.layers)
        bp = "grounded" if self.grounded_backplane else "floating"
        return (
            f"SubstrateProfile({self.size_x}x{self.size_y}x{self.depth}, "
            f"sigma=[{sigmas}], backplane={bp})"
        )
