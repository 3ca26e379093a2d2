"""Experiment runners that regenerate the paper's tables.

Each function corresponds to one table (or figure) of the evaluation and
returns plain data structures (lists of dicts / dataclasses) that the
``benchmarks/bench_table_*`` and ``bench_fig_*`` scripts print and write to
``benchmarks/results/``.  Keeping the logic here means the benchmarks, the
example scripts and the tests all execute the same code paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..analysis.metrics import (
    AccuracyReport,
    evaluate_against_columns,
    evaluate_against_dense,
)
from ..core.lowrank import LowRankSparsifier
from ..core.wavelet import WaveletSparsifier
from ..geometry import ContactLayout
from ..substrate import CountingSolver, DenseMatrixSolver, extract_columns, extract_dense
from ..substrate.fd import PRECONDITIONER_NAMES, FiniteDifferenceSolver
from ..substrate.solver_base import SubstrateSolver
from .examples import ExampleConfig

__all__ = [
    "SparsificationResult",
    "run_wavelet_experiment",
    "run_lowrank_experiment",
    "run_method_comparison",
    "run_preconditioner_table",
    "run_solver_speed_table",
    "singular_value_decay_experiment",
]


@dataclass
class SparsificationResult:
    """Result of one sparsification run on one example."""

    example: str
    method: str
    unthresholded: AccuracyReport
    thresholded: AccuracyReport

    def rows(self) -> list[dict[str, float | int | str]]:
        u = self.unthresholded.as_dict()
        t = self.thresholded.as_dict()
        u["example"] = t["example"] = self.example
        u["thresholded"] = False
        t["thresholded"] = True
        return [u, t]


def _reference_solver(config: ExampleConfig, layout: ContactLayout) -> SubstrateSolver:
    return config.build_solver(layout)


def _exact_reference(
    solver: SubstrateSolver,
    layout: ContactLayout,
    max_dense: int,
    sample_columns: int,
    seed: int = 0,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Dense G for small problems, a column sample for large ones (Table 4.3)."""
    n = layout.n_contacts
    if n <= max_dense:
        return extract_dense(solver, symmetrize=True), None, None
    rng = np.random.default_rng(seed)
    columns = np.sort(rng.choice(n, size=min(sample_columns, n), replace=False))
    return None, columns, extract_columns(solver, columns)


def _evaluate(rep, g_dense, columns, g_columns) -> AccuracyReport:
    if g_dense is not None:
        return evaluate_against_dense(rep, g_dense)
    return evaluate_against_columns(rep, columns, g_columns)


def run_wavelet_experiment(
    config: ExampleConfig,
    order: int = 2,
    threshold_multiplier: float = 6.0,
    max_dense: int = 1600,
    sample_columns: int = 96,
) -> SparsificationResult:
    """Table 3.1 row: wavelet sparsity/accuracy on one example."""
    layout = config.build_layout()
    hierarchy = config.build_hierarchy(layout)
    solver = _reference_solver(config, layout)
    g_dense, columns, g_columns = _exact_reference(solver, layout, max_dense, sample_columns)

    if g_dense is not None:
        black_box: SubstrateSolver = DenseMatrixSolver(g_dense, layout)
    else:
        black_box = solver
    counting = CountingSolver(black_box)
    sparsifier = WaveletSparsifier(hierarchy, order=order)
    rep = sparsifier.extract(counting)
    rep_t = rep.threshold_to_sparsity(rep.sparsity_factor() * threshold_multiplier)
    return SparsificationResult(
        config.name,
        "wavelet",
        _evaluate(rep, g_dense, columns, g_columns),
        _evaluate(rep_t, g_dense, columns, g_columns),
    )


def run_lowrank_experiment(
    config: ExampleConfig,
    max_rank: int = 6,
    threshold_multiplier: float = 6.0,
    max_dense: int = 1600,
    sample_columns: int = 96,
    seed: int = 0,
) -> SparsificationResult:
    """Tables 4.1/4.3 row: low-rank sparsity/accuracy on one example."""
    layout = config.build_layout()
    hierarchy = config.build_hierarchy(layout)
    solver = _reference_solver(config, layout)
    g_dense, columns, g_columns = _exact_reference(solver, layout, max_dense, sample_columns)

    if g_dense is not None:
        black_box: SubstrateSolver = DenseMatrixSolver(g_dense, layout)
    else:
        black_box = solver
    counting = CountingSolver(black_box)
    sparsifier = LowRankSparsifier(hierarchy, max_rank=max_rank, seed=seed)
    sparsifier.build(counting)
    rep = sparsifier.to_sparsified()
    rep_t = rep.threshold_to_sparsity(rep.sparsity_factor() * threshold_multiplier)
    return SparsificationResult(
        config.name,
        "lowrank",
        _evaluate(rep, g_dense, columns, g_columns),
        _evaluate(rep_t, g_dense, columns, g_columns),
    )


def run_method_comparison(
    config: ExampleConfig,
    threshold_multiplier: float = 6.0,
    max_dense: int = 1600,
    sample_columns: int = 96,
) -> dict[str, SparsificationResult]:
    """Tables 4.1 and 4.2: low-rank versus wavelet on the same example and G.

    Both methods see the same extracted reference so the comparison isolates
    the sparsification quality.
    """
    layout = config.build_layout()
    hierarchy = config.build_hierarchy(layout)
    solver = _reference_solver(config, layout)
    g_dense, columns, g_columns = _exact_reference(solver, layout, max_dense, sample_columns)
    if g_dense is not None:
        black_box: SubstrateSolver = DenseMatrixSolver(g_dense, layout)
    else:
        black_box = solver

    results: dict[str, SparsificationResult] = {}

    counting = CountingSolver(black_box)
    wavelet = WaveletSparsifier(hierarchy, order=2)
    rep_w = wavelet.extract(counting)
    rep_wt = rep_w.threshold_to_sparsity(rep_w.sparsity_factor() * threshold_multiplier)
    results["wavelet"] = SparsificationResult(
        config.name,
        "wavelet",
        _evaluate(rep_w, g_dense, columns, g_columns),
        _evaluate(rep_wt, g_dense, columns, g_columns),
    )

    counting = CountingSolver(black_box)
    lowrank = LowRankSparsifier(hierarchy, max_rank=6)
    lowrank.build(counting)
    rep_l = lowrank.to_sparsified()
    rep_lt = rep_l.threshold_to_sparsity(rep_l.sparsity_factor() * threshold_multiplier)
    results["lowrank"] = SparsificationResult(
        config.name,
        "lowrank",
        _evaluate(rep_l, g_dense, columns, g_columns),
        _evaluate(rep_lt, g_dense, columns, g_columns),
    )

    # Table 4.2 also thresholds the wavelet representation to the *same
    # sparsity* as the thresholded low-rank representation.
    rep_w_equal = rep_w.threshold_to_sparsity(rep_lt.sparsity_factor())
    results["wavelet@lowrank-sparsity"] = SparsificationResult(
        config.name,
        "wavelet@lowrank-sparsity",
        results["wavelet"].unthresholded,
        _evaluate(rep_w_equal, g_dense, columns, g_columns),
    )
    return results


def run_preconditioner_table(
    config: ExampleConfig,
    preconditioners: tuple[str, ...] = (
        "fast_poisson_dirichlet",
        "fast_poisson_neumann",
        "fast_poisson_area",
        "ic",
        "jacobi",
    ),
    n_solves: int = 8,
    seed: int = 0,
) -> list[dict[str, float | str]]:
    """Table 2.1: average PCG iterations per solve for each preconditioner."""
    layout = config.build_layout()
    profile = config.build_profile(layout.size_x)
    rng = np.random.default_rng(seed)
    rows: list[dict[str, float | str]] = []
    for name in preconditioners:
        if name not in PRECONDITIONER_NAMES:
            raise ValueError(f"unknown preconditioner {name}")
        solver = FiniteDifferenceSolver(
            layout,
            profile,
            nx=config.fd_resolution[0],
            ny=config.fd_resolution[1],
            planes_per_layer=config.fd_planes_per_layer,
            preconditioner=name,
        )
        start = time.perf_counter()
        for _ in range(n_solves):
            voltages = rng.standard_normal(layout.n_contacts)
            solver.solve_currents(voltages)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "preconditioner": name,
                "mean_iterations": solver.mean_iterations_per_solve(),
                "time_per_solve_s": elapsed / n_solves,
            }
        )
    return rows


def run_solver_speed_table(
    config: ExampleConfig, n_solves: int = 8, seed: int = 0
) -> list[dict[str, float | str]]:
    """Table 2.2: iterations and time per solve, finite-difference vs eigenfunction."""
    layout = config.build_layout()
    rng = np.random.default_rng(seed)
    rows: list[dict[str, float | str]] = []
    for kind in ("fd", "bem"):
        cfg = ExampleConfig(
            config.name,
            config.description,
            config.layout_factory,
            solver=kind,
            max_level=config.max_level,
            max_panels=config.max_panels,
            fd_resolution=config.fd_resolution,
            fd_planes_per_layer=config.fd_planes_per_layer,
        )
        solver = cfg.build_solver(layout)
        start = time.perf_counter()
        for _ in range(n_solves):
            voltages = rng.standard_normal(layout.n_contacts)
            solver.solve_currents(voltages)
        elapsed = time.perf_counter() - start
        mean_iters = solver.mean_iterations_per_solve()  # type: ignore[attr-defined]
        rows.append(
            {
                "solver": "finite difference" if kind == "fd" else "eigenfunction",
                "mean_iterations": mean_iters,
                "time_per_solve_s": elapsed / n_solves,
            }
        )
    return rows


def singular_value_decay_experiment(
    layout: ContactLayout,
    g: np.ndarray,
    source: np.ndarray,
    destination: np.ndarray,
) -> dict[str, np.ndarray]:
    """Figure 4-3: singular values of a self block versus a well-separated block."""
    from ..core.rowbasis import interaction_singular_values

    return {
        "self": interaction_singular_values(g, source, source),
        "separated": interaction_singular_values(g, source, destination),
    }
