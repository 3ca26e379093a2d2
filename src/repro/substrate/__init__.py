"""Substrate models and black-box solvers (Chapter 2)."""

from .dispatch import (
    DispatchDecision,
    DispatchPolicy,
    SolveCostModel,
    resolve_fft_workers,
)
from .extraction import (
    check_conductance_properties,
    extract_columns,
    extract_dense,
)
from .factor_cache import (
    FactorCache,
    factor_cache,
    factor_cache_clear,
    factor_cache_info,
    set_factor_cache_budget,
)
from .parallel import SolverSpec
from .profile import Layer, SubstrateProfile
from .solver_base import (
    CallableSolver,
    CountingSolver,
    DenseMatrixSolver,
    SolveStats,
    SubstrateSolver,
)

__all__ = [
    "Layer",
    "SubstrateProfile",
    "SubstrateSolver",
    "SolveStats",
    "CountingSolver",
    "DenseMatrixSolver",
    "CallableSolver",
    "DispatchPolicy",
    "DispatchDecision",
    "SolveCostModel",
    "resolve_fft_workers",
    "extract_dense",
    "extract_columns",
    "check_conductance_properties",
    "FactorCache",
    "factor_cache",
    "factor_cache_clear",
    "factor_cache_info",
    "set_factor_cache_budget",
    "SolverSpec",
]
