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
  Cost is ``O(ncp^3)`` once plus ``O(ncp^2)`` per column.

No path wins everywhere: the direct path is ~1.7x faster for full dense
extraction at ``n_side = 32`` but pure waste for a handful of columns on a
fresh solver, while the iterative path is unbeatable for narrow blocks and
the only path above ``max_direct_panels``, where the dense factor is not
allowed to exist.
:class:`DispatchPolicy` picks the path per ``solve_many`` block from a
calibrated crossover model of ``(n_panels, n_rhs, grid size)``, with optional
one-shot auto-tune probes (dense and sparse) that rescale the model's machine
constants, and a ``force_path`` override for debugging and benchmarking.

The module also hosts :func:`resolve_fft_workers`, the single place where the
``workers=`` argument of every ``scipy.fft`` DCT call in the package is gated
on :func:`os.cpu_count`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

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


def resolve_fft_workers(workers: int | None = None) -> int | None:
    """Resolve a user-facing ``fft_workers`` knob to a ``scipy.fft`` argument.

    ``None`` (the default) asks for all available CPUs when the host has more
    than one and stays single-threaded otherwise — spawning a worker pool on a
    single-core box only adds overhead.  Explicit positive counts are passed
    through (``1`` collapses to ``None``, scipy's single-threaded default) and
    negative counts keep scipy's own convention (``-1`` = all CPUs).
    """
    if workers is None:
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

    The defaults were calibrated against the ``BENCH_batched.json`` reference
    runs and the 4,096-panel measurements below: dense factor/triangular-solve
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
        """Estimated cost of serving the block through the dense factor."""
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
        to iterative when the factorisation is impossible (too many panels,
        or a failed factorisation), with the reason recorded on the
        decision.
    cost_model:
        The crossover model; defaults to a calibrated :class:`SolveCostModel`.
    auto_tune:
        Run one-shot timing probes on the first decision and rescale the
        model's machine constants: ``choose`` probes dense Cholesky vs. the
        stacked DCT (``fft_unit``), ``choose_sparse`` probes a sparse LU of a
        grid Laplacian vs. its matvec (``sparse_factor_unit`` /
        ``fd_iteration_units``).
    min_direct_rhs:
        Never factor for blocks narrower than this when no factor is cached
        (guards the cost model against degenerate inputs).
    max_direct_nodes:
        Ceiling on FD grid nodes for which a sparse LU may be built
        (:meth:`choose_sparse`); fill memory grows like ``n^(4/3)``, so very
        fine grids must stay iterative.  ``0`` disables the FD direct path.
    """

    def __init__(
        self,
        max_direct_panels: int | None = None,
        force_path: str | None = None,
        cost_model: SolveCostModel | None = None,
        auto_tune: bool = False,
        min_direct_rhs: int = 2,
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
        self.cost_model = cost_model if cost_model is not None else SolveCostModel()
        self.auto_tune = bool(auto_tune)
        self.min_direct_rhs = int(min_direct_rhs)
        self.max_direct_nodes = int(max_direct_nodes)
        self._tuned = False
        self._sparse_tuned = False

    @property
    def max_direct_panels(self) -> int:
        """Dense-factor panel ceiling: the explicit value, else the budget's."""
        if self._max_direct_panels is not None:
            return self._max_direct_panels
        return factor_cache().max_dense_factor_order()

    # -------------------------------------------------------------- auto-tune
    def auto_tune_probe(self, size: int = 160, batch: int = 8, grid: int = 64) -> float:
        """One-shot machine probe: measured DCT-vs-Cholesky flop-cost ratio.

        Times a small dense Cholesky (BLAS-3 throughput) against a stacked 2-D
        DCT round trip (transform-pipeline throughput) and updates
        ``cost_model.fft_unit`` with the measured ratio, clamped to a sane
        range.  Runs at most once per policy; returns the ratio used.
        """
        if self._tuned:
            return self.cost_model.fft_unit
        self._tuned = True
        try:
            from scipy import fft as sp_fft

            rng = np.random.default_rng(0)
            a = rng.standard_normal((size, size))
            spd = a @ a.T + size * np.eye(size)
            start = time.perf_counter()
            np.linalg.cholesky(spd)
            chol_s = max(time.perf_counter() - start, 1e-9)
            chol_per_flop = chol_s / (size**3 / 3.0)

            block = rng.standard_normal((batch, grid, grid))
            start = time.perf_counter()
            modal = sp_fft.dctn(block, type=2, norm="ortho", axes=(1, 2))
            sp_fft.idctn(modal, type=2, norm="ortho", axes=(1, 2))
            fft_s = max(time.perf_counter() - start, 1e-9)
            points = batch * grid * grid
            fft_per_flop = fft_s / (
                self.cost_model.fft_flops_per_point * points * np.log2(grid * grid)
            )
            ratio = float(np.clip(fft_per_flop / chol_per_flop, 1.0, 100.0))
        except Exception:  # pragma: no cover - probe must never break a solve
            return self.cost_model.fft_unit
        self.cost_model.fft_unit = ratio
        return ratio

    def auto_tune_sparse_probe(self, n_side: int = 14) -> tuple[float, float]:
        """One-shot machine probe for the sparse (FD) crossover constants.

        Factors a small 3-D grid Laplacian with ``splu`` and times one
        multi-RHS triangular solve and one block matvec.  The triangular
        sweep is taken as the model's reference scale (its cost in work units
        is ``2 * fill`` by construction), and ``sparse_factor_unit`` /
        ``fd_iteration_units`` are rescaled so the measured factor and
        per-iteration times sit at the right ratio to it on this machine.
        Runs at most once per policy; returns the updated pair.
        """
        model = self.cost_model
        if self._sparse_tuned:
            return model.sparse_factor_unit, model.fd_iteration_units
        self._sparse_tuned = True
        try:
            from scipy import sparse as sp
            from scipy.sparse.linalg import splu

            m = int(n_side)
            one = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
            eye = sp.identity(m)
            lap = (
                sp.kron(sp.kron(one, eye), eye)
                + sp.kron(sp.kron(eye, one), eye)
                + sp.kron(sp.kron(eye, eye), one)
                + sp.identity(m**3)
            ).tocsc()
            n = lap.shape[0]
            rng = np.random.default_rng(0)
            b = rng.standard_normal((n, 8))

            start = time.perf_counter()
            lu = splu(lap)
            factor_s = max(time.perf_counter() - start, 1e-9)
            start = time.perf_counter()
            lu.solve(b)
            solve_s = max(time.perf_counter() - start, 1e-9) / b.shape[1]
            start = time.perf_counter()
            for _ in range(4):
                lap @ b
            matvec_s = max(time.perf_counter() - start, 1e-9) / (4 * b.shape[1])

            # reference scale: the per-column triangular sweep costs 2*fill
            # work units by definition, and `solve_s` seconds as measured
            fill = model.sparse_fill_unit * float(n) ** (4.0 / 3.0)
            units_per_second = 2.0 * fill / solve_s
            # one PCG iteration ~ matvec + preconditioner + vector updates
            # (~3 matvec-equivalents, the calibration used by the defaults)
            iter_units = 3.0 * matvec_s * units_per_second / n
            factor_units = factor_s * units_per_second / float(n) ** 2
            model.fd_iteration_units = float(np.clip(iter_units, 5.0, 2000.0))
            model.sparse_factor_unit = float(np.clip(factor_units, 0.5, 500.0))
        except Exception:  # pragma: no cover - probe must never break a solve
            return model.sparse_factor_unit, model.fd_iteration_units
        return model.sparse_factor_unit, model.fd_iteration_units

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
        """Route one ``solve_many`` block.

        The decision is made once per block on the *full* column count — the
        chosen engine then applies its own ``max_batch`` memory chunking — so
        the one-time factorisation cost is amortised over the whole block, not
        over a single chunk.  ``factor_cached`` says the dense factor is
        already built; ``factor_failed`` latches a failed factorisation of
        ``A_cc`` and disables the direct path.
        """
        if self.auto_tune and not self._tuned:
            self.auto_tune_probe()

        max_direct_panels = self.max_direct_panels
        direct_possible = not factor_failed and 0 < n_panels <= max_direct_panels
        if self.force_path is not None:
            if self.force_path == "direct" and not direct_possible:
                return DispatchDecision(
                    "iterative",
                    "forced direct path unavailable "
                    + ("(factorisation failed)" if factor_failed else "(panel ceiling)"),
                )
            return DispatchDecision(self.force_path, "forced")
        if not direct_possible:
            reason = (
                "factorisation previously failed"
                if factor_failed
                else f"n_panels {n_panels} exceeds max_direct_panels {max_direct_panels}"
            )
            return DispatchDecision("iterative", reason)
        if not factor_cached and n_rhs < self.min_direct_rhs:
            return DispatchDecision(
                "iterative",
                f"block narrower than min_direct_rhs {self.min_direct_rhs}",
            )
        direct = self.cost_model.direct_cost(
            n_panels, n_rhs, grid_points, factor_cached, grounded
        )
        iterative = self.cost_model.iterative_cost(n_panels, n_rhs, grid_points, grounded)
        if direct <= iterative:
            return DispatchDecision(
                "direct",
                "cached factor" if factor_cached else "crossover model",
                direct_cost=direct,
                iterative_cost=iterative,
            )
        return DispatchDecision(
            "iterative",
            "crossover model",
            direct_cost=direct,
            iterative_cost=iterative,
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

        With ``auto_tune`` the first sparse decision runs
        :meth:`auto_tune_sparse_probe` to rescale the sparse cost constants
        to this machine (the ROADMAP's FD counterpart of the dense probe).
        """
        if self.auto_tune and not self._sparse_tuned:
            self.auto_tune_sparse_probe()
        direct_possible = not factor_failed and 0 < n_nodes <= self.max_direct_nodes
        if self.force_path is not None:
            if self.force_path == "direct" and not direct_possible:
                return DispatchDecision(
                    "iterative",
                    "forced direct path unavailable "
                    + ("(factorisation failed)" if factor_failed else "(node ceiling)"),
                )
            return DispatchDecision(self.force_path, "forced")
        if not direct_possible:
            reason = (
                "factorisation previously failed"
                if factor_failed
                else f"n_nodes {n_nodes} exceeds max_direct_nodes {self.max_direct_nodes}"
            )
            return DispatchDecision("iterative", reason)
        if not factor_cached and n_rhs < self.min_direct_rhs:
            return DispatchDecision(
                "iterative", f"block narrower than min_direct_rhs {self.min_direct_rhs}"
            )
        direct = self.cost_model.sparse_direct_cost(n_nodes, n_rhs, factor_cached)
        iterative = self.cost_model.sparse_iterative_cost(
            n_nodes, n_rhs, expected_iterations
        )
        if direct <= iterative:
            return DispatchDecision(
                "direct",
                "cached factor" if factor_cached else "sparse crossover model",
                direct_cost=direct,
                iterative_cost=iterative,
            )
        return DispatchDecision(
            "iterative",
            "sparse crossover model",
            direct_cost=direct,
            iterative_cost=iterative,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DispatchPolicy(max_direct_panels={self.max_direct_panels}, "
            f"force_path={self.force_path!r}, auto_tune={self.auto_tune})"
        )
