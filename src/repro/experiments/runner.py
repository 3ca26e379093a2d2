"""Experiment runners that regenerate the paper's tables.

Each function corresponds to one table (or figure) of the evaluation and
returns plain data structures (lists of dicts / dataclasses) that the
benchmark harness prints and that EXPERIMENTS.md records.  Keeping the logic
here means the benchmarks, the example scripts and the tests all execute the
same code paths.
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
    "run_batched_extraction_experiment",
    "run_dispatch_experiment",
    "run_durable_experiment",
    "run_service_experiment",
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


def run_batched_extraction_experiment(
    n_side: int = 16,
    size: float = 128.0,
    fill: float = 0.5,
    rtol: float = 1e-8,
    max_panels: int = 256,
    repeats: int = 3,
    force_path: str | None = None,
    fft_workers: int | None = None,
) -> dict[str, float | int]:
    """Sequential versus batched dense extraction on a regular contact grid.

    Times the naive one-``solve_currents``-per-contact extraction against the
    same extraction submitted as a single ``solve_many`` block, and records
    the agreement between the two ``G`` matrices.  Each measurement is
    repeated ``repeats`` times on a freshly constructed solver with the
    process-wide factor cache disabled, so no solver-level or process-level
    cache (Cholesky factor, work buffers) survives between repetitions, and
    the minimum is reported, which suppresses scheduler noise.  Solver
    construction itself — including the eigenvalue-table memoisation — stays
    outside the timed region for both paths.  This is the experiment behind
    ``BENCH_batched.json``; warm-cache behaviour is pinned separately by
    the factor-cache tests (``tests/test_factor_cache.py``).
    """
    from ..geometry.layouts import regular_grid
    from ..substrate.bem.solver import EigenfunctionSolver
    from ..substrate.dispatch import DispatchPolicy
    from ..substrate.profile import SubstrateProfile

    layout = regular_grid(n_side=n_side, size=size, fill=fill)
    profile = SubstrateProfile.two_layer_example(size=size, resistive_bottom=True)
    n = layout.n_contacts

    def build() -> EigenfunctionSolver:
        return EigenfunctionSolver(
            layout,
            profile,
            max_panels=max_panels,
            rtol=rtol,
            dispatch=DispatchPolicy(force_path=force_path),
            fft_workers=fft_workers,
            use_factor_cache=False,
        )

    t_seq = np.inf
    for _ in range(max(1, repeats)):
        solver_seq = build()
        start = time.perf_counter()
        g_seq = np.empty((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            g_seq[:, i] = solver_seq.solve_currents(e)
        t_seq = min(t_seq, time.perf_counter() - start)

    t_batch = np.inf
    for _ in range(max(1, repeats)):
        solver_batch = build()
        start = time.perf_counter()
        g_batch = extract_dense(solver_batch)
        t_batch = min(t_batch, time.perf_counter() - start)

    scale = float(np.abs(g_seq).max())
    used_direct = solver_batch.stats.n_direct_solves > 0
    return {
        "n_side": int(n_side),
        "n_contacts": int(n),
        "panel_grid": int(solver_batch.grid.nx),
        "repeats": int(max(1, repeats)),
        "sequential_s": float(t_seq),
        "batched_s": float(t_batch),
        "speedup": float(t_seq / t_batch) if t_batch > 0 else float("inf"),
        "max_abs_diff_rel": float(np.abs(g_seq - g_batch).max() / scale),
        "mean_iterations_sequential": float(solver_seq.mean_iterations_per_solve()),
        # the factor-once/solve-all path runs no Krylov iterations at all;
        # report which engine served the block so 0.0 is not misread as
        # "CG converged instantly"
        "batched_used_direct_path": bool(used_direct),
        "mean_iterations_batched": (
            None if used_direct else float(solver_batch.mean_iterations_per_solve())
        ),
    }


def run_dispatch_experiment(
    n_side: int = 16,
    size: float = 128.0,
    fill: float = 0.5,
    rtol: float = 1e-8,
    max_panels: int = 256,
    repeats: int = 3,
    fft_workers: int | None = None,
    backplanes: tuple[str, ...] = ("grounded", "floating"),
) -> dict:
    """Adaptive dispatch versus the two fixed solve engines, per backplane.

    Times full dense extraction (``extract_dense`` — one wide ``solve_many``
    block) three ways on the paper's regular-grid example: with the policy
    pinned to the iterative engine, pinned to the direct engine, and left
    adaptive.  Run for a grounded backplane (stacked-RHS CG vs. cached dense
    Cholesky) and a floating one (block MINRES vs. the bordered
    Schur-complement factorisation).  Every measurement uses a freshly built
    solver with the process-wide factor cache disabled, so no factor or work
    buffer survives between repetitions; the
    minimum over ``repeats`` is reported.  This is the experiment behind
    ``BENCH_dispatch.json``: the adaptive policy must never be slower than
    the worse fixed path, and the three extracted ``G`` matrices must agree.
    """
    from ..geometry.layouts import regular_grid
    from ..substrate.bem.solver import EigenfunctionSolver
    from ..substrate.dispatch import DispatchPolicy
    from ..substrate.profile import SubstrateProfile

    layout = regular_grid(n_side=n_side, size=size, fill=fill)
    profiles = {
        "grounded": SubstrateProfile.two_layer_example(size=size, resistive_bottom=True),
        "floating": SubstrateProfile.two_layer_example(size=size, grounded_backplane=False),
    }

    def timed_extraction(
        profile: SubstrateProfile, force_path: str | None
    ) -> tuple[float, np.ndarray, EigenfunctionSolver]:
        best = np.inf
        g = None
        solver = None
        for _ in range(max(1, repeats)):
            solver = EigenfunctionSolver(
                layout,
                profile,
                max_panels=max_panels,
                rtol=rtol,
                dispatch=DispatchPolicy(force_path=force_path),
                fft_workers=fft_workers,
                use_factor_cache=False,
            )
            start = time.perf_counter()
            g = extract_dense(solver)
            best = min(best, time.perf_counter() - start)
        return best, g, solver

    out: dict = {
        "n_side": int(n_side),
        "n_contacts": int(layout.n_contacts),
        "repeats": int(max(1, repeats)),
    }
    for backplane in backplanes:
        profile = profiles[backplane]
        t_iter, g_iter, s_iter = timed_extraction(profile, "iterative")
        t_direct, g_direct, s_direct = timed_extraction(profile, "direct")
        t_adaptive, g_adaptive, s_adaptive = timed_extraction(profile, None)
        scale = float(np.abs(g_iter).max())
        worse_fixed = max(t_iter, t_direct)
        out.setdefault("panel_grid", int(s_iter.grid.nx))
        out[backplane] = {
            "iterative_s": float(t_iter),
            "direct_s": float(t_direct),
            "adaptive_s": float(t_adaptive),
            "adaptive_path": s_adaptive.last_dispatch.path,
            "adaptive_reason": s_adaptive.last_dispatch.reason,
            "speedup_adaptive_vs_iterative": float(t_iter / t_adaptive),
            "speedup_adaptive_vs_worse_fixed": float(worse_fixed / t_adaptive),
            "max_abs_diff_rel": float(
                max(
                    np.abs(g_adaptive - g_iter).max(),
                    np.abs(g_adaptive - g_direct).max(),
                )
                / scale
            ),
            "mean_iterations_iterative": float(s_iter.mean_iterations_per_solve()),
            "n_direct_solves_adaptive": int(s_adaptive.stats.n_direct_solves),
            "n_iterative_solves_adaptive": int(s_adaptive.stats.n_iterative_solves),
        }
    return out


def run_service_experiment(
    n_side: int = 16,
    size: float = 128.0,
    fill: float = 0.5,
    rtol: float = 1e-8,
    max_panels: int = 256,
    n_clients: int = 8,
    columns_per_client: int | None = None,
    http_clients: int = 2,
    coalesce_window_s: float = 0.05,
    seed: int = 0,
) -> dict:
    """Extraction service (coalesced) versus one-solver-per-request clients.

    ``n_clients`` concurrent clients each want a random sample of ``G``
    columns drawn from a shared half of the contacts (heavy overlap — the
    workload the service exists for).  Two arms are timed wall-clock:

    * **baseline** — every client builds its *own* solver (factor cache
      disabled, emulating independent processes: the pre-service status quo
      where each caller constructs solvers by hand) and extracts its columns
      through a :class:`~repro.substrate.solver_base.CountingSolver`;
    * **service** — the same clients submit
      :class:`~repro.service.jobs.JobRequest` jobs to one
      :class:`~repro.service.scheduler.Scheduler`, which coalesces them over
      the shared substrate fingerprint, solves only the union of fresh
      columns on a persistent warm engine, and serves overlaps from the
      :class:`~repro.service.result_store.ResultStore`.

    The baseline extractions double as the isolated references for the
    agreement gate.  A repeated query afterwards must be served entirely
    from the result store (zero new solves), and an ``http_clients``-client
    round trip through the real :class:`~repro.service.aserver.AsyncExtractionServer`
    checks the wire path end to end.  This is the experiment behind
    ``BENCH_service.json``.
    """
    import os
    from concurrent.futures import ThreadPoolExecutor

    from ..geometry.layouts import regular_grid
    from ..service import AsyncExtractionServer, JobRequest, Scheduler, ServiceClient
    from ..substrate.parallel import SolverSpec
    from ..substrate.profile import SubstrateProfile

    layout = regular_grid(n_side=n_side, size=size, fill=fill)
    profile = SubstrateProfile.two_layer_example(size=size, resistive_bottom=True)
    n = layout.n_contacts
    if columns_per_client is None:
        columns_per_client = max(2, n // 4)
    spec = SolverSpec.bem(layout, profile, max_panels=max_panels, rtol=rtol)
    baseline_spec = SolverSpec.bem(
        layout, profile, max_panels=max_panels, rtol=rtol, use_factor_cache=False
    )

    # overlapping workload: every client samples from the same half of the
    # contacts, so cross-request coalescing has real work to share
    rng = np.random.default_rng(seed)
    pool = np.sort(rng.choice(n, size=max(columns_per_client, n // 2), replace=False))
    client_columns = [
        tuple(
            int(c)
            for c in np.sort(rng.choice(pool, size=columns_per_client, replace=False))
        )
        for _ in range(n_clients)
    ]
    union = sorted({c for cols in client_columns for c in cols})

    # --- baseline: one fresh solver per concurrent request ------------------
    baseline_results: list[np.ndarray | None] = [None] * n_clients
    baseline_counts = [0] * n_clients

    def baseline_client(i: int) -> None:
        counting = CountingSolver(baseline_spec.build())
        baseline_results[i] = extract_columns(
            counting, np.asarray(client_columns[i], dtype=int)
        )
        baseline_counts[i] = counting.solve_count

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=n_clients) as executor:
        list(executor.map(baseline_client, range(n_clients)))
    baseline_s = time.perf_counter() - start
    scale = float(max(np.abs(g).max() for g in baseline_results))

    # --- service: coalesced jobs against one scheduler ----------------------
    record: dict = {
        "n_side": int(n_side),
        "n_contacts": int(n),
        "n_clients": int(n_clients),
        "columns_per_client": int(columns_per_client),
        "union_columns": len(union),
        "baseline_s": float(baseline_s),
        "baseline_counts": [int(c) for c in baseline_counts],
    }
    with Scheduler(coalesce_window_s=coalesce_window_s) as scheduler:
        service_results: list[np.ndarray | None] = [None] * n_clients
        service_status: list[str] = ["?"] * n_clients

        def service_client(i: int) -> None:
            job_id = scheduler.submit(JobRequest(spec, columns=client_columns[i]))
            job = scheduler.result(job_id, wait_s=600.0)
            service_status[i] = job.status
            service_results[i] = job.result

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=n_clients) as executor:
            list(executor.map(service_client, range(n_clients)))
        service_s = time.perf_counter() - start

        diffs = [
            float(np.abs(service_results[i] - baseline_results[i]).max() / scale)
            if service_results[i] is not None
            else float("inf")
            for i in range(n_clients)
        ]
        stats_after = scheduler.stats()

        # --- repeated query: must be served from the store, zero new solves -
        solved_before_repeat = scheduler.metrics.columns_solved
        job = scheduler.result(
            scheduler.submit(JobRequest(spec, columns=client_columns[0])),
            wait_s=600.0,
        )
        repeat_diff = (
            float(np.abs(job.result - baseline_results[0]).max() / scale)
            if job.result is not None
            else float("inf")
        )
        record.update(
            {
                "service_s": float(service_s),
                "throughput_speedup": float(baseline_s / service_s),
                "service_status": service_status,
                "max_abs_diff_rel": float(max(diffs)),
                "columns_solved": int(stats_after["coalescing"]["columns_solved"]),
                "columns_from_store": int(
                    stats_after["coalescing"]["columns_from_store"]
                ),
                "batches": int(stats_after["coalescing"]["batches"]),
                "attributed_solves": int(scheduler.attributed_solves),
                "latency_s": stats_after["latency_s"],
                "solve_stats": stats_after["solve_stats"],
                "result_store": stats_after["result_store"],
                "repeat": {
                    "status": job.status,
                    "new_solves": int(
                        scheduler.metrics.columns_solved - solved_before_repeat
                    ),
                    "max_abs_diff_rel": repeat_diff,
                },
            }
        )

    # --- HTTP round trip through the real server ----------------------------
    if http_clients > 0:
        with AsyncExtractionServer(coalesce_window_s=coalesce_window_s) as server:
            client = ServiceClient(server.url, timeout_s=600.0)
            http_results: list[np.ndarray | None] = [None] * http_clients

            def http_client(i: int) -> None:
                http_results[i] = client.extract(
                    JobRequest(spec, columns=client_columns[i % n_clients]),
                    timeout_s=600.0,
                )

            with ThreadPoolExecutor(max_workers=http_clients) as executor:
                list(executor.map(http_client, range(http_clients)))
            http_union = sorted(
                {c for cols in client_columns[:http_clients] for c in cols}
            )
            http_stats = client.stats()
            record["http"] = {
                "clients": int(http_clients),
                "healthz_ok": bool(client.healthz()["ok"]),
                "union_columns": len(http_union),
                "columns_solved": int(http_stats["coalescing"]["columns_solved"]),
                "batches": int(http_stats["coalescing"]["batches"]),
                "max_abs_diff_rel": float(
                    max(
                        np.abs(http_results[i] - baseline_results[i % n_clients]).max()
                        / scale
                        for i in range(http_clients)
                    )
                ),
            }
    record["cpu_count"] = int(os.cpu_count() or 1)
    return record


def run_durable_experiment(
    n_side: int = 16,
    size: float = 128.0,
    fill: float = 0.5,
    rtol: float = 1e-8,
    max_panels: int = 256,
    n_clients: int = 4,
    columns_per_client: int | None = None,
    seed: int = 0,
    state_dir: str | None = None,
) -> dict:
    """Cold start versus warm restart of a persistent extraction service.

    Three schedulers run against the **same state directory** (a temporary
    one unless ``state_dir`` is given), with the process-wide factor cache
    wiped between them to simulate a process restart:

    * **cold** — an empty state dir: clients pay the full factorisation and
      one attributed solve per union column, and every byte of it lands in
      the durable corpus (sqlite columns, factor artifacts, job journal);
    * **warm** — a restarted service over the populated state dir re-serves
      the *same* client workload with **zero** new attributed solves at
      1e-10 agreement with the cold results, and a fresh (never-solved)
      column costs exactly one solve with the factor loaded from the
      artifact store instead of rebuilt (counter-pinned probes);
    * **replay** — a scheduler that accepts a job and "crashes" (state dir
      survives, scheduler object does not finalize it); the next start
      replays the journaled job under its original id and completes it
      from the warm corpus with zero solves.

    This is the experiment behind ``BENCH_durable.json``.
    """
    import os
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from ..geometry.layouts import regular_grid
    from ..service import JobRequest, Scheduler
    from ..substrate.factor_cache import factor_cache
    from ..substrate.parallel import SolverSpec
    from ..substrate.profile import SubstrateProfile

    layout = regular_grid(n_side=n_side, size=size, fill=fill)
    profile = SubstrateProfile.two_layer_example(size=size, resistive_bottom=True)
    n = layout.n_contacts
    if columns_per_client is None:
        columns_per_client = max(2, n // 4)
    spec = SolverSpec.bem(layout, profile, max_panels=max_panels, rtol=rtol)

    rng = np.random.default_rng(seed)
    # hold one contact out of every client's sample: the warm arm proves a
    # *fresh* column still costs exactly one solve (store can't fake it)
    held_out = int(rng.integers(n))
    pool = np.array([c for c in range(n) if c != held_out])
    client_columns = [
        tuple(
            int(c)
            for c in np.sort(rng.choice(pool, size=columns_per_client, replace=False))
        )
        for _ in range(n_clients)
    ]
    union = sorted({c for cols in client_columns for c in cols})

    tmp = None
    if state_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro_durable_")
        state_dir = tmp.name

    def run_clients(scheduler) -> tuple[float, list, list]:
        results: list[np.ndarray | None] = [None] * n_clients
        status: list[str] = ["?"] * n_clients

        def one(i: int) -> None:
            job_id = scheduler.submit(JobRequest(spec, columns=client_columns[i]))
            job = scheduler.result(job_id, wait_s=600.0)
            status[i] = job.status
            results[i] = job.result

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=n_clients) as executor:
            list(executor.map(one, range(n_clients)))
        return time.perf_counter() - start, results, status

    record: dict = {
        "n_side": int(n_side),
        "n_contacts": int(n),
        "n_clients": int(n_clients),
        "columns_per_client": int(columns_per_client),
        "union_columns": len(union),
        "held_out_column": held_out,
    }
    try:
        # --- cold arm: empty state dir, full factorisation + solves ---------
        factor_cache().clear()
        with Scheduler(persistence=state_dir) as scheduler:
            cold_s, cold_results, cold_status = run_clients(scheduler)
            record.update(
                {
                    "cold_s": float(cold_s),
                    "cold_status": cold_status,
                    "cold_attributed_solves": int(scheduler.attributed_solves),
                    "persistence_after_cold": scheduler.persistence.info(),
                }
            )
        scale = float(max(np.abs(g).max() for g in cold_results))

        # --- warm arm: simulated restart over the populated state dir -------
        factor_cache().clear()  # a new process holds no RAM factors
        with Scheduler(persistence=state_dir) as scheduler:
            warm_s, warm_results, warm_status = run_clients(scheduler)
            diffs = [
                float(np.abs(warm_results[i] - cold_results[i]).max() / scale)
                if warm_results[i] is not None
                else float("inf")
                for i in range(n_clients)
            ]
            store_info = scheduler.store.info()
            record.update(
                {
                    "warm_s": float(warm_s),
                    "warm_status": warm_status,
                    "warm_attributed_solves": int(scheduler.attributed_solves),
                    "warm_max_abs_diff_rel": float(max(diffs)),
                    "warm_speedup": float(cold_s / warm_s),
                    "warm_disk_hits": int(store_info["disk_hits"]),
                }
            )

            # fresh column: the corpus cannot fake it — exactly one solve,
            # with the factor loaded from the artifact store, not rebuilt
            before = scheduler.attributed_solves
            cache = factor_cache()
            hits_before = cache.artifact_hits
            cache.clear()  # force the engine rebuild path through artifacts
            scheduler.pool.close()  # drop the warm engine with its factor
            job = scheduler.result(
                scheduler.submit(JobRequest(spec, columns=(held_out,))),
                wait_s=600.0,
            )
            record["fresh_column"] = {
                "status": job.status,
                "new_solves": int(scheduler.attributed_solves - before),
                "artifact_hits": int(cache.artifact_hits - hits_before),
            }

            # counter-pinned factor probes: a bare solver over the same spec
            # must load the artifact (zero rebuilds) while the store is
            # wired, and rebuild from scratch once it is not
            cache.clear()
            warm_probe = spec.build()
            warm_probe.prepare_direct()
            record["warm_probe_rebuilds"] = int(warm_probe.stats.n_factor_rebuilds)
        factor_cache().clear()  # artifact store now detached (scheduler closed)
        cold_probe = spec.build()
        cold_probe.prepare_direct()
        record["cold_probe_rebuilds"] = int(cold_probe.stats.n_factor_rebuilds)

        # --- crash replay: accept, "crash", restart, journal replays --------
        factor_cache().clear()
        crashed = Scheduler(persistence=state_dir, autostart=False)
        crash_job_id = crashed.submit(JobRequest(spec, columns=client_columns[0]))
        # simulated crash: the journaled accept survives on disk, but the
        # job is never served or marked terminal (close() deliberately
        # skips the terminal mark for still-pending work)
        crashed.close()
        with Scheduler(persistence=state_dir) as scheduler:
            job = scheduler.result(crash_job_id, wait_s=600.0)
            replay_diff = (
                float(np.abs(job.result - cold_results[0]).max() / scale)
                if job.result is not None
                else float("inf")
            )
            record["replay"] = {
                "journal_replayed": int(scheduler.metrics.jobs_replayed),
                "status": job.status,
                "new_solves": int(scheduler.attributed_solves),
                "max_abs_diff_rel": replay_diff,
            }
    finally:
        factor_cache().clear()
        factor_cache().set_artifact_store(None)  # never outlive the state dir
        if tmp is not None:
            tmp.cleanup()
    record["cpu_count"] = int(os.cpu_count() or 1)
    return record


def run_faults_experiment(
    n_side: int = 16,
    size: float = 128.0,
    fill: float = 0.5,
    rtol: float = 1e-8,
    max_panels: int = 256,
    n_clients: int = 4,
    columns_per_client: int | None = None,
    seed: int = 0,
    max_attempts: int = 3,
) -> dict:
    """Chaos suite: the extraction service under deterministically injected faults.

    Three arms over one substrate and one overlapping multi-client workload
    (same construction as :func:`run_service_experiment`):

    * **baseline** — fault-free run; its results are the accuracy reference
      and its attribution (one solve per distinct union column) the
      attribution reference;
    * **factor_retry** — engine construction fails transiently (one injected
      ``RuntimeError`` at ``factor.build``); the scheduler's
      :class:`~repro.service.scheduler.RetryPolicy` must land every job
      within ``max_attempts``, again with identical attribution;
    * **overload** — a bounded queue (``max_queue_depth=n_clients``) is
      filled with priority-0 jobs through the real HTTP server; two
      priority-5 submissions must displace exactly the two youngest low-
      priority jobs (terminal ``"shed"``), one more priority-0 submission
      must be refused with HTTP 429 (surfaced as
      :class:`~repro.service.jobs.QueueSaturatedError` + Retry-After),
      an injected ``dispatch.cycle`` drop must leave the queue intact, and
      every surviving job must complete at 1e-10 of baseline.

    This is the experiment behind ``BENCH_faults.json``.
    """
    import os
    from concurrent.futures import ThreadPoolExecutor

    from .. import faults
    from ..geometry.layouts import regular_grid
    from ..service import (
        AsyncExtractionServer,
        JobRequest,
        QueueSaturatedError,
        RetryPolicy,
        Scheduler,
        ServiceClient,
    )
    from ..substrate.factor_cache import factor_cache
    from ..substrate.parallel import SolverSpec
    from ..substrate.profile import SubstrateProfile

    layout = regular_grid(n_side=n_side, size=size, fill=fill)
    profile = SubstrateProfile.two_layer_example(size=size, resistive_bottom=True)
    n = layout.n_contacts
    if columns_per_client is None:
        columns_per_client = max(2, n // 4)
    columns_per_client = min(columns_per_client, n)
    spec = SolverSpec.bem(layout, profile, max_panels=max_panels, rtol=rtol)
    policy = RetryPolicy(max_attempts=max_attempts, base_delay_s=0.01, cap_s=0.1)

    rng = np.random.default_rng(seed)
    client_columns = [
        tuple(
            int(c)
            for c in np.sort(
                rng.choice(n, size=columns_per_client, replace=False)
            )
        )
        for _ in range(n_clients)
    ]
    union = sorted({c for cols in client_columns for c in cols})

    def run_clients(scheduler) -> dict:
        results: list[np.ndarray | None] = [None] * n_clients
        status: list[str] = ["?"] * n_clients
        attempts: list[int] = [0] * n_clients

        def one(i: int) -> None:
            job_id = scheduler.submit(JobRequest(spec, columns=client_columns[i]))
            job = scheduler.result(job_id, wait_s=600.0)
            status[i] = job.status
            attempts[i] = job.attempts
            results[i] = job.result

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=n_clients) as executor:
            list(executor.map(one, range(n_clients)))
        return {
            "elapsed_s": time.perf_counter() - start,
            "results": results,
            "status": status,
            "attempts": attempts,
        }

    def rel_diff(results: list) -> float:
        return float(
            max(
                np.abs(results[i] - baseline["results"][i]).max() / scale
                if results[i] is not None
                else float("inf")
                for i in range(n_clients)
            )
        )

    record: dict = {
        "n_side": int(n_side),
        "n_contacts": int(n),
        "n_clients": int(n_clients),
        "columns_per_client": int(columns_per_client),
        "union_columns": len(union),
        "max_attempts": int(max_attempts),
    }

    # --- arm 0: fault-free baseline -------------------------------------
    factor_cache().clear()
    with Scheduler(retry_policy=policy) as scheduler:
        baseline = run_clients(scheduler)
        record["baseline"] = {
            "elapsed_s": float(baseline["elapsed_s"]),
            "status": baseline["status"],
            "attempts": baseline["attempts"],
            "attributed_solves": int(scheduler.attributed_solves),
        }
    scale = float(max(np.abs(g).max() for g in baseline["results"]))

    # --- arm 1: transient engine-build failure, retried -----------------
    factor_cache().clear()
    with faults.inject(
        [
            {
                "site": "factor.build",
                "action": "raise",
                "exception": "RuntimeError",
                "times": 1,
            }
        ]
    ):
        with Scheduler(retry_policy=policy) as scheduler:
            retry = run_clients(scheduler)
            counters = scheduler.metrics.fault_counters()
            record["factor_retry"] = {
                "elapsed_s": float(retry["elapsed_s"]),
                "status": retry["status"],
                "attempts": retry["attempts"],
                "attributed_solves": int(scheduler.attributed_solves),
                "retries": int(counters["retries"]),
                "max_abs_diff_rel": rel_diff(retry["results"]),
            }

    # --- arm 2: overload shedding through the HTTP front end ------------
    factor_cache().clear()
    depth = n_clients
    scheduler = Scheduler(
        retry_policy=policy,
        autostart=False,  # the queue must fill deterministically
        max_queue_depth=depth,
    )
    try:
        with AsyncExtractionServer(scheduler=scheduler) as server:
            client = ServiceClient(server.url, timeout_s=600.0)
            low_ids = [
                client.submit(
                    JobRequest(spec, columns=client_columns[i % n_clients], priority=0)
                )
                for i in range(depth)
            ]
            high_ids = [
                client.submit(
                    JobRequest(spec, columns=client_columns[i % n_clients], priority=5)
                )
                for i in range(2)
            ]
            rejected = False
            retry_after_s = None
            try:
                client.submit(JobRequest(spec, columns=client_columns[0], priority=0))
            except QueueSaturatedError as exc:
                rejected = True
                retry_after_s = float(exc.retry_after_s)
            # a dropped dispatch cycle leaves the queue untouched
            with faults.inject(
                [{"site": "dispatch.cycle", "action": "drop", "times": 1}]
            ):
                served_during_drop = scheduler.step()
            depth_after_drop = scheduler.queue_depth
            served = 0
            while scheduler.queue_depth:
                served += scheduler.step()
            low_status = [client.result(job_id)["status"] for job_id in low_ids]
            high_status = [client.result(job_id)["status"] for job_id in high_ids]
            survivor_diff = 0.0
            for status, ids in ((low_status, low_ids), (high_status, high_ids)):
                for i, job_id in enumerate(ids):
                    if status[i] != "done":
                        continue
                    got = np.asarray(client.result(job_id)["result"])
                    expected = baseline["results"][i % n_clients]
                    survivor_diff = max(
                        survivor_diff, float(np.abs(got - expected).max() / scale)
                    )
            counters = scheduler.metrics.fault_counters()
            record["overload"] = {
                "queue_depth": depth,
                "low_status": low_status,
                "high_status": high_status,
                "shed": int(scheduler.metrics.jobs_shed),
                "submits_rejected": int(counters["submits_rejected"]),
                "rejected_over_http": rejected,
                "retry_after_s": retry_after_s,
                "served_during_drop": int(served_during_drop),
                "queue_depth_after_drop": int(depth_after_drop),
                "served_after_drop": int(served),
                "max_abs_diff_rel": float(survivor_diff),
            }
    finally:
        scheduler.close()
        factor_cache().clear()
    record["cpu_count"] = int(os.cpu_count() or 1)
    return record


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
