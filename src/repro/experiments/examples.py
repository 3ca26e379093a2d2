"""The paper's evaluation examples as reusable configurations.

Chapter 3 evaluates the wavelet method on Examples 1a, 1b, 2 and 3
(Table 3.1); Chapter 4 compares the low-rank and wavelet methods on the
regular grid, the alternating-size grid and a mixed-shape layout
(Tables 4.1/4.2) and reports two larger runs (Table 4.3).  This module
captures each example as a small configuration object so tests, the example
scripts and the benchmark harness all use exactly the same workloads.

The paper's substrate is 128 x 128 x 40 with a two-layer profile (bottom
conductivity 100x the top) and, to emulate a floating backplane with a
grounded-backplane solver, a thin resistive layer above the backplane
(Section 3.7).  Example sizes default to the paper's scale but can be scaled
down by the caller (useful for quick tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..geometry import (
    ContactLayout,
    SquareHierarchy,
    alternating_size_grid,
    irregular_same_size,
    large_alternating_grid,
    large_mixed,
    mixed_shapes,
    regular_grid,
)
from ..substrate import SubstrateProfile
from ..substrate.parallel import SolverSpec
from ..substrate.solver_base import SubstrateSolver

__all__ = ["ExampleConfig", "paper_examples", "chapter4_examples", "get_example"]


@dataclass
class ExampleConfig:
    """One evaluation workload.

    Attributes
    ----------
    name:
        Identifier used in tables ("1a", "2", "ch4-3", ...).
    description:
        Human-readable summary matching the paper's description.
    layout_factory:
        Zero-argument callable building the contact layout.
    solver:
        "bem" (eigenfunction solver, the default in the paper) or "fd".
    max_level:
        Quadtree depth for the sparsification hierarchy.
    max_panels:
        Panel-per-side cap of the eigenfunction solver.
    """

    name: str
    description: str
    layout_factory: Callable[[], ContactLayout]
    solver: str = "bem"
    max_level: int = 4
    max_panels: int = 128
    fd_resolution: tuple[int, int] = (32, 32)
    fd_planes_per_layer: tuple[int, ...] = (2, 4, 2)

    def build_layout(self) -> ContactLayout:
        return self.layout_factory()

    def build_profile(self, size: float) -> SubstrateProfile:
        return SubstrateProfile.two_layer_example(size=size, resistive_bottom=True)

    def build_hierarchy(self, layout: ContactLayout) -> SquareHierarchy:
        return SquareHierarchy(layout, max_level=self.max_level)

    def build_solver(self, layout: ContactLayout) -> SubstrateSolver:
        # one source of truth for the per-kind constructor arguments: the
        # serial solver is the spec's solver, so the parallel worker path can
        # never drift from what build_solver would have produced
        return self.build_spec(layout).build()

    def build_spec(self, layout: ContactLayout | None = None, **overrides) -> SolverSpec:
        """The :class:`~repro.substrate.parallel.SolverSpec` of this workload.

        The spec is plain data that travels as JSON
        (:func:`~repro.service.wire.spec_to_wire`) and rebuilds a solver
        equivalent to :meth:`build_solver` in any process (the layout factory
        itself is usually a lambda, so the spec captures the *built* layout
        instead).  ``overrides`` are stored into the spec's constructor
        options (e.g. ``fft_workers=1``).
        """
        layout = self.build_layout() if layout is None else layout
        profile = self.build_profile(layout.size_x)
        if self.solver == "bem":
            return SolverSpec.bem(
                layout, profile, max_panels=self.max_panels, **overrides
            )
        if self.solver == "fd":
            return SolverSpec.fd(
                layout,
                profile,
                nx=self.fd_resolution[0],
                ny=self.fd_resolution[1],
                planes_per_layer=tuple(self.fd_planes_per_layer),
                **overrides,
            )
        raise ValueError(f"unknown solver kind {self.solver!r}")


def paper_examples(n_side: int = 16, size: float = 128.0) -> dict[str, ExampleConfig]:
    """Chapter 3 examples (Table 3.1), scaled by ``n_side`` contacts per side.

    * 1a — regular grid, eigenfunction solver (Figure 3-6),
    * 1b — same layout, finite-difference solver,
    * 2  — irregular placement of same-size contacts (Figure 3-7),
    * 3  — alternating-size regular grid (Figure 3-8).
    """
    max_level = max(2, (n_side - 1).bit_length())
    return {
        "1a": ExampleConfig(
            "1a",
            "regular grid of identical contacts (eigenfunction solver)",
            lambda: regular_grid(n_side=n_side, size=size, fill=0.5),
            solver="bem",
            max_level=max_level,
        ),
        "1b": ExampleConfig(
            "1b",
            "regular grid of identical contacts (finite-difference solver)",
            lambda: regular_grid(n_side=n_side, size=size, fill=0.5),
            solver="fd",
            max_level=max_level,
        ),
        "2": ExampleConfig(
            "2",
            "same-size contacts, irregular placement with gaps",
            lambda: irregular_same_size(n_side=n_side, size=size, fill=0.5),
            solver="bem",
            max_level=max_level,
        ),
        "3": ExampleConfig(
            "3",
            "regular grid of alternating-size contacts",
            lambda: alternating_size_grid(n_side=n_side, size=size),
            solver="bem",
            max_level=max_level,
        ),
    }


def chapter4_examples(n_side: int = 16, size: float = 128.0) -> dict[str, ExampleConfig]:
    """Chapter 4 examples (Tables 4.1-4.3), scaled by ``n_side``.

    * ch4-1 — regular grid (same as Example 1a),
    * ch4-2 — alternating-size grid (the wavelet method's weak spot),
    * ch4-3 — irregular mixed-shape layout with rings and long thin contacts,
    * ch4-4 — larger alternating-size grid (Table 4.3, Example 4),
    * ch4-5 — large mixed large/small contact layout (Table 4.3, Example 5).
    """
    max_level = max(2, (n_side - 1).bit_length())
    large_side = 2 * n_side
    return {
        "ch4-1": ExampleConfig(
            "ch4-1",
            "regular grid of identical contacts",
            lambda: regular_grid(n_side=n_side, size=size, fill=0.5),
            max_level=max_level,
        ),
        "ch4-2": ExampleConfig(
            "ch4-2",
            "alternating-size contact grid",
            lambda: alternating_size_grid(n_side=n_side, size=size),
            max_level=max_level,
        ),
        "ch4-3": ExampleConfig(
            "ch4-3",
            "mixed shapes: small squares, buses and guard rings",
            lambda: mixed_shapes(size=size, max_level=max_level),
            max_level=max_level,
        ),
        "ch4-4": ExampleConfig(
            "ch4-4",
            "large alternating-size grid (Table 4.3 example 4)",
            lambda: large_alternating_grid(n_side=large_side, size=2 * size),
            max_level=max_level + 1,
            max_panels=256,
        ),
        "ch4-5": ExampleConfig(
            "ch4-5",
            "large mixed large/small contact layout (Table 4.3 example 5)",
            lambda: large_mixed(size=2 * size, max_level=max_level + 1),
            max_level=max_level + 1,
            max_panels=256,
        ),
    }


def get_example(name: str, n_side: int = 16, size: float = 128.0) -> ExampleConfig:
    """Look up an example configuration by table name."""
    table = paper_examples(n_side=n_side, size=size)
    table.update(chapter4_examples(n_side=n_side, size=size))
    if name not in table:
        raise KeyError(f"unknown example {name!r}; available: {sorted(table)}")
    return table[name]
