"""repro: fast extraction and sparsification of substrate coupling.

Reproduction of Kanapka, Phillips, White (DAC 2000) / Kanapka's MIT thesis:
black-box substrate solvers (finite-difference and eigenfunction-based), the
wavelet (vanishing-moment) sparsification of Chapter 3 and the low-rank
sparsification of Chapter 4, with the combine-solves technique that reduces
the number of black-box solves from ``n`` to ``O(log n)``.
"""

from .geometry import (
    Contact,
    ContactLayout,
    PanelGrid,
    SquareHierarchy,
    alternating_size_grid,
    irregular_same_size,
    mixed_shapes,
    regular_grid,
)
from .substrate import (
    CallableSolver,
    CountingSolver,
    DenseMatrixSolver,
    DispatchDecision,
    DispatchPolicy,
    FactorCache,
    Layer,
    SolveCostModel,
    SolveStats,
    SolverSpec,
    SubstrateProfile,
    SubstrateSolver,
    check_conductance_properties,
    extract_columns,
    extract_dense,
    factor_cache,
    factor_cache_clear,
    factor_cache_info,
    resolve_fft_workers,
    set_factor_cache_budget,
)
from .substrate.bem import EigenfunctionSolver
from .substrate.fd import FiniteDifferenceSolver

__version__ = "1.0.0"

__all__ = [
    "Contact",
    "ContactLayout",
    "PanelGrid",
    "SquareHierarchy",
    "regular_grid",
    "irregular_same_size",
    "alternating_size_grid",
    "mixed_shapes",
    "Layer",
    "SubstrateProfile",
    "SubstrateSolver",
    "CallableSolver",
    "CountingSolver",
    "DenseMatrixSolver",
    "DispatchDecision",
    "DispatchPolicy",
    "SolveCostModel",
    "SolveStats",
    "resolve_fft_workers",
    "EigenfunctionSolver",
    "FiniteDifferenceSolver",
    "extract_dense",
    "extract_columns",
    "check_conductance_properties",
    "FactorCache",
    "factor_cache",
    "factor_cache_clear",
    "factor_cache_info",
    "set_factor_cache_budget",
    "SolverSpec",
    "__version__",
]
