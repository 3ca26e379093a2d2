"""Black-box substrate solver interface.

The sparsification algorithms of Chapters 3 and 4 only require a *black box*
that, given a vector of contact voltages, returns the vector of contact
currents (``i = G v``).  This module defines that interface, a call-counting
wrapper used to measure the solve-reduction factor, and a trivial
dense-matrix-backed solver that is invaluable for testing.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..geometry.contact import ContactLayout

__all__ = [
    "SolveStats",
    "SubstrateSolver",
    "CountingSolver",
    "DenseMatrixSolver",
    "CallableSolver",
]


def check_finite_voltages(voltages: np.ndarray) -> None:
    """Refuse a voltage vector or block holding NaN or inf.

    The physical solvers call this next to their shape checks.  Without it
    a non-finite column would come back as NaN from CG, as an all-zero
    column from block MINRES (which freezes a NaN residual at ``x = 0``),
    and unchecked through the direct engines, whose triangular solves skip
    SciPy's own scan.
    """
    if not np.isfinite(voltages).all():
        raise ValueError("voltages must be finite (no NaN or inf)")


@dataclass
class SolveStats:
    """Per-solver bookkeeping for Table 2.1/2.2-style convergence reporting.

    Iterative (Krylov) solves and direct (factor-once/solve-all) solves are
    tracked **separately**: a direct solve runs zero Krylov iterations, and
    folding it into the iteration mean would skew the reported convergence
    metric toward zero for any workload that mixes both engines.
    :attr:`mean_iterations` is therefore always "iterations per *iterative*
    solve"; direct solves only show up in :attr:`n_direct_solves` and
    :attr:`n_solves`.
    """

    #: number of solves served by a Krylov iteration (CG / MINRES / PCG)
    n_iterative_solves: int = 0
    #: number of solves served by a cached dense factorisation
    n_direct_solves: int = 0
    total_iterations: int = 0
    iterations_per_solve: list[int] = field(default_factory=list)
    #: factors this solver had to build from scratch (cold factorisation)
    n_factor_rebuilds: int = 0

    def record(self, iterations: int) -> None:
        """Record one iterative solve and its Krylov iteration count."""
        self.n_iterative_solves += 1
        self.total_iterations += iterations
        self.iterations_per_solve.append(iterations)

    def record_direct(self, n_solves: int = 1) -> None:
        """Record ``n_solves`` columns served by the direct (factored) path."""
        self.n_direct_solves += n_solves

    def record_factor_rebuild(self, n: int = 1) -> None:
        """Record ``n`` factors built here (not loaded from a cache or artifact)."""
        self.n_factor_rebuilds += n

    def merge(self, other: "SolveStats") -> "SolveStats":
        """Fold another stats object into this one; returns ``self``.

        Used to aggregate the statistics of several solvers (the service's
        engines, any multi-solver workload) into one report: iterative/direct
        solve counts and iteration totals add, and
        :attr:`mean_iterations` therefore stays "iterations per *iterative*
        solve" over the union — direct solves never dilute it.
        """
        self.n_iterative_solves += other.n_iterative_solves
        self.n_direct_solves += other.n_direct_solves
        self.total_iterations += other.total_iterations
        self.iterations_per_solve.extend(other.iterations_per_solve)
        self.n_factor_rebuilds += other.n_factor_rebuilds
        return self

    @property
    def n_solves(self) -> int:
        """Total black-box solves served, either engine."""
        return self.n_iterative_solves + self.n_direct_solves

    @property
    def mean_iterations(self) -> float:
        """Mean Krylov iterations per **iterative** solve (0.0 if none ran)."""
        if self.n_iterative_solves == 0:
            return 0.0
        return self.total_iterations / self.n_iterative_solves

    def as_dict(self) -> dict[str, float | int]:
        """Summary with iterative and direct counts reported separately."""
        return {
            "n_solves": self.n_solves,
            "n_iterative_solves": self.n_iterative_solves,
            "n_direct_solves": self.n_direct_solves,
            "total_iterations": self.total_iterations,
            "mean_iterations": self.mean_iterations,
            "n_factor_rebuilds": self.n_factor_rebuilds,
        }


class SubstrateSolver(abc.ABC):
    """Abstract voltage-to-current substrate solver (the black box).

    Implementations: :class:`~repro.substrate.bem.solver.EigenfunctionSolver`,
    :class:`~repro.substrate.fd.solver.FiniteDifferenceSolver`, and
    :class:`DenseMatrixSolver`.
    """

    #: the contact layout this solver was built for
    layout: ContactLayout

    #: optional adaptive direct-vs-iterative routing policy
    #: (:class:`~repro.substrate.dispatch.DispatchPolicy`).  ``None`` means
    #: the backend has a single solve engine; backends with both a factored
    #: and an iterative path (the eigenfunction solver) set one and consult
    #: it per :meth:`solve_many` block.
    dispatch = None

    @property
    def n_contacts(self) -> int:
        return self.layout.n_contacts

    @abc.abstractmethod
    def solve_currents(self, voltages: np.ndarray) -> np.ndarray:
        """Return contact currents for the given contact voltages.

        Parameters
        ----------
        voltages:
            Length-``n`` vector of contact voltages.

        Returns
        -------
        Length-``n`` vector of contact currents (current *into* each contact).
        """

    def solve_many(self, voltages: np.ndarray) -> np.ndarray:
        """Return contact currents for a block of voltage vectors.

        Parameters
        ----------
        voltages:
            ``(n, k)`` array whose columns are independent contact-voltage
            vectors.

        Returns
        -------
        ``(n, k)`` array whose column ``j`` equals
        ``solve_currents(voltages[:, j])``.

        The base implementation loops over columns; backends with a genuinely
        vectorised path (stacked-RHS Krylov iterations, ``G @ V`` products)
        override it.  Each column counts as one black-box solve for
        accounting purposes (:class:`CountingSolver`), batched or not.
        """
        v = np.asarray(voltages, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.n_contacts:
            raise ValueError("expected an (n_contacts, k) voltage block")
        out = np.empty_like(v)
        for j in range(v.shape[1]):
            # a fresh copy per column so implementations can never alias or
            # mutate the caller's block
            out[:, j] = self.solve_currents(v[:, j].copy())
        return out

    def apply(self, voltages: np.ndarray) -> np.ndarray:
        """Alias of :meth:`solve_currents` (operator-style name)."""
        return self.solve_currents(voltages)


class CountingSolver(SubstrateSolver):
    """Wrapper that counts black-box calls.

    The solve-reduction factor reported in Tables 4.1 and 4.3 is
    ``n_contacts / solve_count`` after an extraction run.
    """

    def __init__(self, inner: SubstrateSolver) -> None:
        self.inner = inner
        self.layout = inner.layout
        self.solve_count = 0

    def solve_currents(self, voltages: np.ndarray) -> np.ndarray:
        self.solve_count += 1
        return self.inner.solve_currents(voltages)

    def solve_many(self, voltages: np.ndarray) -> np.ndarray:
        """Forward the block to the inner solver, counting one solve per column.

        Batching groups right-hand sides into a single submission; it must not
        change how many black-box solves the extraction is charged for, so the
        paper's solve-reduction metric is invariant under batching.
        """
        v = np.asarray(voltages, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.n_contacts:
            raise ValueError("expected an (n_contacts, k) voltage block")
        self.solve_count += v.shape[1]
        return self.inner.solve_many(v)

    def reset(self) -> None:
        """Reset the call counter."""
        self.solve_count = 0

    def solve_reduction_factor(self) -> float:
        """``n / number of solves`` (naive extraction needs ``n`` solves)."""
        if self.solve_count == 0:
            return float("inf")
        return self.n_contacts / self.solve_count


class DenseMatrixSolver(SubstrateSolver):
    """Black box backed by an explicit dense conductance matrix.

    Used in tests (exact reference) and to wrap a pre-extracted ``G`` so the
    sparsification algorithms can be studied independently of the underlying
    physical solver.
    """

    def __init__(self, matrix: np.ndarray, layout: ContactLayout) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("conductance matrix must be square")
        if matrix.shape[0] != layout.n_contacts:
            raise ValueError("matrix size does not match the number of contacts")
        self.matrix = matrix
        self.layout = layout
        #: always zero: a matrix product is neither an iterative nor a
        #: factored solve, but callers that read every engine's counters
        #: (the service's scheduler) find the attribute here too
        self.stats = SolveStats()

    def solve_currents(self, voltages: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(voltages, dtype=float)

    def solve_many(self, voltages: np.ndarray) -> np.ndarray:
        v = np.asarray(voltages, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.n_contacts:
            raise ValueError("expected an (n_contacts, k) voltage block")
        return self.matrix @ v


class CallableSolver(SubstrateSolver):
    """Black box backed by an arbitrary callable ``v -> i``."""

    def __init__(
        self, func: Callable[[np.ndarray], np.ndarray], layout: ContactLayout
    ) -> None:
        self._func = func
        self.layout = layout

    def solve_currents(self, voltages: np.ndarray) -> np.ndarray:
        return np.asarray(self._func(np.asarray(voltages, dtype=float)), dtype=float)
