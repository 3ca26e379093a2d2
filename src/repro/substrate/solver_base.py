"""Black-box substrate solver interface.

The sparsification algorithms of Chapters 3 and 4 only require a *black box*
that, given a vector of contact voltages, returns the vector of contact
currents (``i = G v``).  This module defines that interface, a call-counting
wrapper used to measure the solve-reduction factor, and a trivial
dense-matrix-backed solver that is invaluable for testing.

``_DispatchingSolver`` is the one frame of Chapter 2's two physical black
boxes, the finite-difference and eigenfunction solvers: each supplies only
its factor and one chunk solver per engine.
"""

from __future__ import annotations

import abc
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.linalg import LinAlgError

from ..geometry.contact import ContactLayout
from .dispatch import DispatchDecision, DispatchPolicy
from .factor_cache import factor_cache

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

    Every field is a counter, so a stats object stays the same size however
    many solves it records, and the work done between two points is the
    field-by-field difference of copies taken there.
    """

    #: number of solves served by a Krylov iteration (CG / MINRES / PCG)
    n_iterative_solves: int = 0
    #: number of solves served by a cached dense factorisation
    n_direct_solves: int = 0
    total_iterations: int = 0
    #: factors this solver had to build from scratch (cold factorisation)
    n_factor_rebuilds: int = 0
    #: direct factors this solver replaced by their contact-space form
    #: (a change of form, not a build: no rebuild or cache lookup is counted)
    n_factor_promotions: int = 0

    def record(self, iterations: int) -> None:
        """Record one iterative solve and its Krylov iteration count."""
        self.n_iterative_solves += 1
        self.total_iterations += iterations

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
        self.n_factor_rebuilds += other.n_factor_rebuilds
        self.n_factor_promotions += other.n_factor_promotions
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
            "n_factor_promotions": self.n_factor_promotions,
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
    #: and an iterative path (the eigenfunction and finite-difference
    #: solvers) set one and consult it per :meth:`solve_many` block.
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


class _DispatchingSolver(SubstrateSolver):
    """The one frame of both physical solvers (Sections 2.2 and 2.3).

    Each backend has two engines behind ``i = G v``: a direct factor, built
    once and reused, and a stacked-RHS Krylov engine.  The frame holds the
    rest once: the block checks; one routing decision per :meth:`solve_many`
    block (:meth:`_choose`), then ``max_batch``-column chunks;
    :meth:`solve_currents` as a one-column iterative run, so every call
    counts its Krylov iterations (Tables 2.1 and 2.2); and one failure rule.
    A failed factorisation raises ``LinAlgError`` in either backend and is
    latched, so dispatch never retries it; the block that met it warns once
    and is answered by the iterative engine.

    The process-wide :mod:`~repro.substrate.factor_cache` is a direct
    factor's only owner.  Each direct block looks the factor up there once
    (:meth:`~repro.substrate.factor_cache.FactorCache.get_or_build`), and the
    solver keeps a reference of its own only when the cache will not hold
    it: ``use_factor_cache`` is off, or the cache refused it as oversized
    (built here or loaded from its artifact store).  So clearing, shrinking
    or evicting the cache frees the factor, and the next direct block
    rebuilds it, counted like any build: one cache miss and one
    ``n_factor_rebuilds``.

    A factor may have a cheaper second form for warm blocks
    (:meth:`_contact_form`; the eigenfunction solver's ``W = U^-T E``).  The
    frame promotes it just before a direct block, once the columns this
    solver has sent through the direct engine, that block's included, reach
    ``n_contacts / 2``: ski rental, since by then the sweeps spent on the
    old form cost as much as building the new one.  The promoted form
    replaces the factor where it lives, the cache entry (through one
    ``put``, so no lookup or build is counted) or the solver's own
    reference, and is counted in ``stats.n_factor_promotions``.  An evicted
    promoted entry is rebuilt (or reloaded) in its first form, and promoted
    again by the next direct block.

    A backend supplies the abstract hooks below.  Its chunk solvers return
    ``(currents, gauges)``: the gauge constants of a floating-backplane
    eigenfunction solve, which the frame stitches into
    ``last_gauge_constants`` for the whole block, else None.
    """

    #: routing decision of the most recent solve_many block (diagnostics)
    last_dispatch: DispatchDecision | None = None
    #: the direct factor, held here only when the factor cache will not hold it
    _private_factor: Any = None
    #: latched by a failed factorisation; dispatch never tries it again
    _direct_failed: bool = False

    def __init__(
        self,
        layout: ContactLayout,
        max_batch: int,
        dispatch: DispatchPolicy,
        use_factor_cache: bool,
        factor_cache_key: tuple,
    ) -> None:
        self.layout = layout
        self.max_batch = int(max_batch)
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.dispatch = dispatch
        self.use_factor_cache = bool(use_factor_cache)
        self.stats = SolveStats()
        self._factor_cache_key = factor_cache_key

    # ------------------------------------------------------- backend hooks
    @abc.abstractmethod
    def _direct_limits(self) -> tuple[int, int]:
        """``(size, ceiling)`` of the direct factor (panels or grid nodes)."""

    @abc.abstractmethod
    def _choose(self, n_rhs: int, **state: bool) -> DispatchDecision:
        """Route a block through the policy (``state``: factor cached/failed)."""

    @abc.abstractmethod
    def _build_direct_factor(self) -> Any:
        """Build the direct factor; raise ``LinAlgError`` if it fails."""

    @abc.abstractmethod
    def _solve_direct_chunk(
        self, v: np.ndarray, factor: Any
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Currents (and gauges) of an ``(n_contacts, k)`` chunk by the factor."""

    @abc.abstractmethod
    def _solve_iterative_chunk(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Currents (and gauges) of an ``(n_contacts, k)`` chunk by Krylov."""

    def _contact_form(self, factor: Any) -> Any:
        """The factor's cheaper form for warm blocks, or ``factor`` itself.

        The default (the finite-difference solver's sparse LU) has none.
        """
        return factor

    # -------------------------------------------------------------- solves
    def solve_currents(self, voltages: np.ndarray) -> np.ndarray:
        """Contact currents for one voltage vector.

        A one-column run of the iterative engine (never the direct factor),
        so every call counts its Krylov iterations.
        """
        v = self._one_column(voltages)
        return self._in_chunks(self._solve_iterative_chunk, v)[:, 0]

    def solve_many(self, voltages: np.ndarray) -> np.ndarray:
        """Batched black-box solve with adaptive direct/iterative dispatch.

        The policy routes the whole block once, so a one-time factorisation
        is amortised over every column, and the chosen engine then runs in
        ``max_batch``-column chunks.  Column ``j`` of the result matches
        ``solve_currents(voltages[:, j])`` to the solver tolerance on either
        engine.  A block holding NaN or inf raises ``ValueError`` here,
        before any engine sees it.
        """
        v = self._block(voltages)
        if v.shape[1] == 0:
            return np.empty_like(v)
        self.last_dispatch = self._choose(
            v.shape[1],
            factor_cached=self._factor_available(),
            factor_failed=self._direct_failed,
        )
        if self.last_dispatch.path == "direct":
            factor = self._latched_factor()
            if factor is not None:
                factor = self._promoted(factor, v.shape[1])
                out = self._in_chunks(self._solve_direct_chunk, v, factor)
                self.stats.record_direct(v.shape[1])
                return out
            warnings.warn(
                "direct factorisation failed; falling back to the iterative path",
                RuntimeWarning,
                stacklevel=2,
            )
            self.last_dispatch = DispatchDecision(
                "iterative", "direct factorisation failed"
            )
        return self._in_chunks(self._solve_iterative_chunk, v)

    def _block(self, voltages: np.ndarray) -> np.ndarray:
        """A checked ``(n_contacts, k)`` voltage block, as floats."""
        v = np.asarray(voltages, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.n_contacts:
            raise ValueError("expected an (n_contacts, k) voltage block")
        check_finite_voltages(v)
        return v

    def _one_column(self, voltages: np.ndarray) -> np.ndarray:
        """One checked voltage vector as an ``(n_contacts, 1)`` block."""
        v = np.asarray(voltages, dtype=float)
        if v.shape != (self.n_contacts,):
            raise ValueError("expected one voltage per contact")
        check_finite_voltages(v)
        return v[:, None]

    def _in_chunks(self, solve_chunk: Callable, v: np.ndarray, *args: Any) -> np.ndarray:
        """Run one engine's chunk solver over ``max_batch``-column chunks."""
        out = np.empty_like(v)
        gauges = []
        for start in range(0, v.shape[1], self.max_batch):
            cols = slice(start, start + self.max_batch)
            out[:, cols], chunk_gauges = solve_chunk(v[:, cols], *args)
            gauges.append(chunk_gauges)
        if gauges[0] is not None:
            self.last_gauge_constants = np.concatenate(gauges)
        return out

    # ---------------------------------------------------------- direct path
    def prepare_direct(self) -> bool:
        """Build (or load from the factor cache) the direct factor now.

        Returns True when the factor exists afterwards, in the factor cache
        or held by this solver; False when the direct path is unavailable
        (over the backend's size ceiling, or a failed factorisation, which
        is latched so dispatch never retries it).  The service calls it once
        when it builds an engine, so requests pay solve cost only.
        """
        size, ceiling = self._direct_limits()
        if self._direct_failed or not 0 < size <= ceiling:
            return False
        return self._latched_factor() is not None

    def _latched_factor(self) -> Any:
        """The direct factor, or None after latching a failed factorisation."""
        try:
            return self._ensure_direct_factor()
        except LinAlgError:
            self._direct_failed = True
            return None

    @property
    def factor_cache_key(self) -> tuple:
        """Process-wide factor-cache key of this solver's direct factor.

        Every solver over the same substrate and discretisation shares it,
        and the artifact store files the factor under its digest.
        """
        return self._factor_cache_key

    @property
    def direct_factor(self) -> Any:
        """The direct factor the next direct block would use, or None.

        Read without building and without touching the cache's counters or
        recency; None before the first build and after the cache dropped
        the factor.
        """
        if self._private_factor is not None:
            return self._private_factor
        if self.use_factor_cache:
            return factor_cache().peek(self._factor_cache_key)
        return None

    def _factor_available(self) -> bool:
        """A direct factor is held, or sits warm in the process-wide cache."""
        return self._private_factor is not None or (
            self.use_factor_cache and factor_cache().contains(self._factor_cache_key)
        )

    def _ensure_direct_factor(self) -> Any:
        """Return the direct factor, building it on a miss.

        Callers keep the returned reference for the rest of their block, so
        an eviction mid-block cannot break it.
        """
        if self._private_factor is not None:
            return self._private_factor
        if not self.use_factor_cache:
            self._private_factor = self._counted_build()
            return self._private_factor
        cache = factor_cache()
        factor = cache.get_or_build(self._factor_cache_key, self._counted_build)
        if not cache.contains(self._factor_cache_key):
            self._private_factor = factor
        return factor

    def _promoted(self, factor: Any, n_rhs: int) -> Any:
        """The form of ``factor`` a direct block of ``n_rhs`` columns runs on."""
        if 2 * (self.stats.n_direct_solves + n_rhs) < self.n_contacts:
            return factor
        promoted = self._contact_form(factor)
        if promoted is factor:
            return factor
        if self._private_factor is factor:
            self._private_factor = promoted
        else:
            cache = factor_cache()
            cache.put(self._factor_cache_key, promoted)
            if not cache.contains(self._factor_cache_key):  # refused as oversized
                self._private_factor = promoted
        self.stats.n_factor_promotions += 1
        return promoted

    def _counted_build(self) -> Any:
        factor = self._build_direct_factor()
        # a build, not a cache or artifact hit: only these are counted
        self.stats.record_factor_rebuild()
        return factor

    # ---------------------------------------------------------- convenience
    def conductance_matrix(self) -> np.ndarray:
        """Dense ``G`` by the naive method, one solve per contact (small layouts only)."""
        from .extraction import extract_dense

        return extract_dense(self)

    def mean_iterations_per_solve(self) -> float:
        """Average Krylov iterations per **iterative** black-box solve.

        Solves served by the direct factor run zero Krylov iterations and
        are excluded from this mean (they are reported separately via
        ``stats.n_direct_solves``); see :class:`SolveStats`.
        """
        return self.stats.mean_iterations


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
