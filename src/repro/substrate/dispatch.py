"""Adaptive solver-dispatch policy for batched substrate solves.

The batched multi-RHS engine (``SubstrateSolver.solve_many``) has two
fundamentally different ways to serve a block of right-hand sides:

* **iterative** — stacked-RHS Krylov iterations (Jacobi-preconditioned CG for
  a grounded backplane, block MINRES on the bordered saddle-point system for a
  floating one).  Cost scales with ``iterations * k * N log N`` where ``N`` is
  the panel-grid size, and nothing is ever factorised.
* **direct** — assemble the dense contact-panel block ``A_cc`` once, factor it
  (Cholesky, or a bordered/Schur-complement factorisation for the floating
  saddle system) and turn every further column into two triangular solves.
  Cost is ``O(ncp^3)`` once plus ``O(ncp^2)`` per column.  A factor that has
  served ``n_contacts / 2`` columns is promoted to its contact-space form
  (:mod:`repro.substrate.bem.solver`), ``O(ncp n_contacts)`` per column; the
  model below keeps charging the Cholesky form.

No path wins everywhere: the direct path is ~1.7x faster for full dense
extraction at ``n_side = 32`` but pure waste for a handful of columns on a
fresh solver, while the iterative path is unbeatable for narrow blocks and
the only path above ``max_direct_panels``, where the dense factor is not
allowed to exist.
:class:`DispatchPolicy` picks the path per ``solve_many`` block from a
fixed, calibrated crossover model of ``(n_panels, n_rhs, grid size)``
(:class:`SolveCostModel`; its sparse half routes the finite-difference
solver's blocks by node count), with a ``force_path`` override for debugging
and benchmarking.

The module also hosts :func:`resolve_fft_workers`, the single place where the
``workers=`` argument of every ``scipy.fft`` DCT call in the package is gated
on the CPUs this process may run on (:func:`os.sched_getaffinity`, or
:func:`os.cpu_count` where the platform has no affinity call).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .factor_cache import factor_cache

__all__ = [
    "DISPATCH_PATHS",
    "DispatchDecision",
    "SolveCostModel",
    "DispatchPolicy",
    "resolve_fft_workers",
]

#: the engines a block can be routed to
DISPATCH_PATHS = ("direct", "iterative")

#: a block narrower than this never builds a factor (guards the cost model
#: against degenerate inputs); a cached factor serves any width
_MIN_DIRECT_RHS = 2


def resolve_fft_workers(workers: int | None = None) -> int | None:
    """Resolve a user-facing ``fft_workers`` knob to a ``scipy.fft`` argument.

    ``None`` (the default) asks for one worker per CPU this process may run
    on when there is more than one, and stays single-threaded otherwise —
    spawning a worker pool for one CPU only adds overhead.  The count is the
    process's affinity mask (so ``taskset -c 0`` means one CPU however many
    the host has), or :func:`os.cpu_count` where the platform has no
    :func:`os.sched_getaffinity`.  Explicit positive counts are passed
    through (``1`` collapses to ``None``, scipy's single-threaded default) and
    negative counts keep scipy's own convention (``-1`` = all CPUs).
    """
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            n = len(os.sched_getaffinity(0))
        else:
            n = os.cpu_count() or 1
        return n if n > 1 else None
    w = int(workers)
    if w == 0:
        raise ValueError("fft_workers must be a nonzero int or None")
    if w < 0:
        return w
    return w if w > 1 else None


@dataclass
class DispatchDecision:
    """Outcome of one routing decision (kept on the solver for inspection)."""

    path: str
    reason: str
    direct_cost: float | None = None
    iterative_cost: float | None = None

    def __post_init__(self) -> None:
        if self.path not in DISPATCH_PATHS:
            raise ValueError(f"unknown dispatch path {self.path!r}")


@dataclass
class SolveCostModel:
    """Crossover model in abstract work units (1 unit = one dense-BLAS3 flop).

    The defaults were calibrated against the batched-extraction reference
    runs (git history; that benchmark has since been retired) and the
    4,096-panel measurements below: dense factor/triangular-solve
    flops run near hardware speed, the scattered DCT pipeline (zero-pad,
    stacked transforms, gather) costs far more per nominal flop, and the
    ``A_cc`` assembly term, calibrated as one inverse transform per row, sits
    in between (see ``assembly_unit``).  Absolute scale cancels in the
    comparison; only the ratios matter.
    """

    #: relative cost of one flop of the stacked-DCT apply pipeline.
    #: Recalibrated against the PR-4 reference measurements at n_side=32
    #: (ncp=4096, k=1024, 128x128 grid): iterative extraction measured 5.6 s
    #: against 0.9 s for the cold in-core direct path, a 6.2x ratio, which
    #: the model reproduces at fft_unit ~= 45.
    fft_unit: float = 45.0
    #: relative cost per nominal flop of the ``A_cc`` assembly term, which
    #: charges one weighted inverse 2-D transform per contact-panel row
    #: (``n_panels * _fft_apply_units(grid_points)``).
    #: ``SurfaceOperator.contact_block_rows`` gathers ``A_cc`` from one
    #: cosine-kernel table in ``O(nx ny (nx + ny) + ncp^2)``, so the term
    #: overcharges assembly.  The value stays as calibrated: at the
    #: extract-paper substrate (5,120 panels, 128x128 grid) the model's
    #: cold break-even is ~175 columns against ~170 measured, so it routes
    #: that set-up's cold 256-column block direct.  The service builds its
    #: factors without consulting the model.
    assembly_unit: float = 3.0
    #: relative cost of one flop of the BLAS-1 vector updates per iteration
    axpy_unit: float = 10.0
    #: nominal flops per grid point and transform pass (2-D DCT round trip)
    fft_flops_per_point: float = 5.0
    #: BLAS-1 vector operations per Krylov iteration per contact panel
    vector_ops_per_iteration: float = 10.0
    #: expected Jacobi-PCG iterations for a grounded-backplane solve
    iterations_grounded: float = 8.0
    #: expected block-MINRES iterations for a floating-backplane solve
    iterations_floating: float = 32.0
    #: fill-in constant of a 3-D sparse LU: total factor nonzeros ~ c * n^(4/3)
    #: (measured ~16.6 on the 32x32x8 grid-of-resistors system via ``splu``)
    sparse_fill_unit: float = 16.0
    #: factor-flop constant of the sparse LU: flops ~ c * n^2 (measured
    #: against the triangular-solve throughput on the same systems)
    sparse_factor_unit: float = 8.7
    #: per-node work units of one FD PCG iteration over one RHS (sparse
    #: matvec + block preconditioner apply + vector updates)
    fd_iteration_units: float = 60.0
    #: default expected FD PCG iterations when the caller has no estimate
    iterations_fd: float = 16.0

    def _fft_apply_units(self, grid_points: int) -> float:
        return self.fft_flops_per_point * grid_points * max(np.log2(grid_points), 1.0)

    def direct_cost(
        self,
        n_panels: int,
        n_rhs: int,
        grid_points: int,
        factor_cached: bool,
        grounded: bool,
    ) -> float:
        """Estimated cost of serving the block through the dense factor.

        Charged as the Cholesky form's two triangular solves per column.  On
        a promoted factor (contact form) that overcharges, but it cannot flip
        a block: a promoted factor is a cached one, and the model routes
        cached-factor blocks direct even at the Cholesky form's price.
        """
        # two triangular solves per column
        cost = 2.0 * float(n_panels) ** 2 * n_rhs
        if not grounded:
            # Schur-complement gauge correction: one rank-1 update per column
            cost += 4.0 * n_panels * n_rhs * self.axpy_unit
        if not factor_cached:
            cost += float(n_panels) ** 3 / 3.0  # Cholesky
            # A_cc assembly, charged as one weighted inverse transform per
            # row: an overcharge of the kernel-table gather (assembly_unit)
            cost += n_panels * self._fft_apply_units(grid_points) * self.assembly_unit
        return cost

    def iterative_cost(
        self, n_panels: int, n_rhs: int, grid_points: int, grounded: bool
    ) -> float:
        """Estimated cost of the stacked-RHS Krylov path for the block."""
        iters = self.iterations_grounded if grounded else self.iterations_floating
        per_column_iteration = (
            self._fft_apply_units(grid_points) * self.fft_unit
            + self.vector_ops_per_iteration * n_panels * self.axpy_unit
        )
        return iters * n_rhs * per_column_iteration

    def sparse_direct_cost(
        self, n_nodes: int, n_rhs: int, factor_cached: bool
    ) -> float:
        """Estimated cost of serving the block through a sparse LU factor.

        Two triangular sweeps over the fill per column, plus the one-time
        factorisation when no factor is cached.  The exponents are the
        standard 3-D nested-dissection bounds (fill ``O(n^{4/3})``, factor
        flops ``O(n^2)``); the constants were calibrated against ``splu``
        timings of the grid-of-resistors system.
        """
        fill = self.sparse_fill_unit * float(n_nodes) ** (4.0 / 3.0)
        cost = 2.0 * fill * n_rhs
        if not factor_cached:
            cost += self.sparse_factor_unit * float(n_nodes) ** 2
        return cost

    def sparse_iterative_cost(
        self, n_nodes: int, n_rhs: int, iterations: float | None = None
    ) -> float:
        """Estimated cost of the multi-RHS PCG path for an FD block.

        Unlike the eigenfunction model, the expected iteration count varies
        by two orders of magnitude with the preconditioner (the area-weighted
        fast-Poisson preconditioner converges in ~1-2 iterations on laterally
        uniform profiles; Jacobi needs >100), so callers pass their observed
        or prior ``iterations``.
        """
        iters = self.iterations_fd if iterations is None else max(float(iterations), 1.0)
        return iters * n_rhs * self.fd_iteration_units * n_nodes


class DispatchPolicy:
    """Chooses the solve engine for each ``solve_many`` block.

    Both decision routines, :meth:`choose` (eigenfunction solver, dense
    factor) and :meth:`choose_sparse` (finite-difference solver, sparse LU),
    apply one rule order: a forced path, then the ceiling and the
    failed-factorisation latch, then the narrow cold block, then the
    :class:`SolveCostModel` comparison.

    Parameters
    ----------
    max_direct_panels:
        Ceiling on contact panels for which a dense factorisation may be built
        (memory is ``O(ncp^2)``); ``0`` disables the direct path.  ``None``
        (the default) reads the process-wide factor cache at every decision:
        the largest panel count whose float64 Cholesky factor the cache would
        store (:meth:`~repro.substrate.factor_cache.FactorCache.max_dense_factor_order`;
        8191 at the 512 MiB default budget, 2896 at 64 MiB), so
        ``set_factor_cache_budget`` and ``REPRO_FACTOR_CACHE_BYTES`` move it.
    force_path:
        ``"direct"`` or ``"iterative"`` pins every block to one engine
        (debugging / benchmarking).  A forced direct path still falls back
        to iterative when the factorisation is impossible (too many panels
        or nodes, or a failed factorisation), with the reason recorded on
        the decision.
    max_direct_nodes:
        Ceiling on FD grid nodes for which a sparse LU may be built
        (:meth:`choose_sparse`); fill memory grows like ``n^(4/3)``, so very
        fine grids must stay iterative.  ``0`` disables the FD direct path.
    """

    def __init__(
        self,
        max_direct_panels: int | None = None,
        force_path: str | None = None,
        max_direct_nodes: int = 200_000,
    ) -> None:
        if force_path is not None and force_path not in DISPATCH_PATHS:
            raise ValueError(
                f"force_path must be one of {DISPATCH_PATHS} or None, got {force_path!r}"
            )
        self._max_direct_panels = (
            None if max_direct_panels is None else int(max_direct_panels)
        )
        self.force_path = force_path
        self.max_direct_nodes = int(max_direct_nodes)
        #: the crossover model, fixed at its calibrated constants
        self.cost_model = SolveCostModel()

    @property
    def max_direct_panels(self) -> int:
        """Dense-factor panel ceiling: the explicit value, else the budget's."""
        if self._max_direct_panels is not None:
            return self._max_direct_panels
        return factor_cache().max_dense_factor_order()

    # --------------------------------------------------------------- decision
    def choose(
        self,
        n_panels: int,
        n_rhs: int,
        grid_points: int,
        grounded: bool,
        factor_cached: bool = False,
        factor_failed: bool = False,
    ) -> DispatchDecision:
        """Route one eigenfunction-solver ``solve_many`` block (dense factor
        vs. stacked-RHS Krylov).

        The decision is made once per block on the *full* column count — the
        chosen engine then applies its own ``max_batch`` memory chunking — so
        the one-time factorisation cost is amortised over the whole block, not
        over a single chunk.  ``factor_cached`` says the dense factor is
        already built; ``factor_failed`` latches a failed factorisation of
        ``A_cc`` and disables the direct path.
        """
        model = self.cost_model
        return self._route(
            n_rhs,
            factor_cached,
            factor_failed,
            unit="panel",
            size=n_panels,
            ceiling=self.max_direct_panels,
            model="crossover model",
            costs=lambda: (
                model.direct_cost(n_panels, n_rhs, grid_points, factor_cached, grounded),
                model.iterative_cost(n_panels, n_rhs, grid_points, grounded),
            ),
        )

    def choose_sparse(
        self,
        n_nodes: int,
        n_rhs: int,
        factor_cached: bool = False,
        factor_failed: bool = False,
        expected_iterations: float | None = None,
    ) -> DispatchDecision:
        """Route one FD ``solve_many`` block (sparse LU vs. multi-RHS PCG).

        Same contract as :meth:`choose`, but against the sparse cost model:
        the caller passes its observed (or prior) PCG iteration count, since
        the FD preconditioners span two orders of magnitude in convergence
        speed and a fixed iteration constant would misroute the fast-Poisson
        path.  The block-level decision amortises the one-time sparse
        factorisation over the whole block width.
        """
        model = self.cost_model
        return self._route(
            n_rhs,
            factor_cached,
            factor_failed,
            unit="node",
            size=n_nodes,
            ceiling=self.max_direct_nodes,
            model="sparse crossover model",
            costs=lambda: (
                model.sparse_direct_cost(n_nodes, n_rhs, factor_cached),
                model.sparse_iterative_cost(n_nodes, n_rhs, expected_iterations),
            ),
        )

    def _route(
        self,
        n_rhs: int,
        factor_cached: bool,
        factor_failed: bool,
        *,
        unit: str,
        size: int,
        ceiling: int,
        model: str,
        costs: Callable[[], tuple[float, float]],
    ) -> DispatchDecision:
        """The rule order behind :meth:`choose` and :meth:`choose_sparse`.

        ``unit`` (``"panel"`` or ``"node"``) names what ``size`` and
        ``ceiling`` count in the ceiling reasons, ``model`` is the reason
        the cost comparison gives, and ``costs`` returns the ``(direct,
        iterative)`` model costs; it runs only when no earlier rule decided.
        """
        over_ceiling = not 0 < size <= ceiling
        if self.force_path is not None:
            if self.force_path == "direct" and (factor_failed or over_ceiling):
                why = "factorisation failed" if factor_failed else f"{unit} ceiling"
                return DispatchDecision(
                    "iterative", f"forced direct path unavailable ({why})"
                )
            return DispatchDecision(self.force_path, "forced")
        if factor_failed:
            return DispatchDecision("iterative", "factorisation previously failed")
        if over_ceiling:
            return DispatchDecision(
                "iterative", f"n_{unit}s {size} exceeds max_direct_{unit}s {ceiling}"
            )
        if not factor_cached and n_rhs < _MIN_DIRECT_RHS:
            return DispatchDecision(
                "iterative", f"block narrower than min_direct_rhs {_MIN_DIRECT_RHS}"
            )
        direct, iterative = costs()
        if direct <= iterative:
            path, reason = "direct", "cached factor" if factor_cached else model
        else:
            path, reason = "iterative", model
        return DispatchDecision(
            path, reason, direct_cost=direct, iterative_cost=iterative
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DispatchPolicy(max_direct_panels={self.max_direct_panels}, "
            f"force_path={self.force_path!r}, max_direct_nodes={self.max_direct_nodes})"
        )
