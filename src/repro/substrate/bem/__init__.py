"""Eigenfunction (surface-variable) substrate solver of Section 2.3."""

from .eigenvalues import (
    eigenvalue_coefficient_recursion,
    eigenvalue_table,
    mode_eigenvalue,
)
from .operator import SurfaceOperator
from .solver import EigenfunctionSolver

__all__ = [
    "mode_eigenvalue",
    "eigenvalue_table",
    "eigenvalue_coefficient_recursion",
    "SurfaceOperator",
    "EigenfunctionSolver",
]
