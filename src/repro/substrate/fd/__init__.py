"""Finite-difference (grid-of-resistors) substrate solver of Section 2.2."""

from .assembly import FDAssembly
from .fast_poisson import FastPoissonPreconditioner
from .grid import Grid3D
from .preconditioners import PRECONDITIONER_NAMES, make_preconditioner
from .solver import FiniteDifferenceSolver

__all__ = [
    "Grid3D",
    "FDAssembly",
    "FastPoissonPreconditioner",
    "make_preconditioner",
    "PRECONDITIONER_NAMES",
    "FiniteDifferenceSolver",
]
