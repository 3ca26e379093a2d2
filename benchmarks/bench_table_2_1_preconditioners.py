"""Table 2.1 — preconditioner effectiveness for the finite-difference solver.

Paper: average PCG iterations per solve of 22.2 (pure Dirichlet), 7.9 (pure
Neumann) and 6.8 (area-weighted) for a regular contact layout; incomplete
Cholesky needs hundreds of iterations.  The benchmark reports the same
quantities for this implementation.
"""

import pytest

from repro.experiments import get_example, run_preconditioner_table

from common import bench_n_side, check_golden, write_result

PRECONDITIONERS = (
    "fast_poisson_dirichlet",
    "fast_poisson_neumann",
    "fast_poisson_area",
    "ic",
    "jacobi",
)

#: The golden holds the PCG iterations summed over the N_SOLVES solves.  They
#: are integers and follow only from the FD system, the preconditioner and
#: the PCG loop, so any change to the FD solve path must keep them exactly
#: (each is a run of the one multi-RHS PCG loop).
N_SOLVES = 3


@pytest.mark.benchmark(group="table-2.1")
def test_table_2_1_preconditioner_effectiveness(benchmark):
    config = get_example("1b", n_side=bench_n_side())
    config.fd_resolution = (64, 64)
    config.fd_planes_per_layer = (2, 5, 2)

    rows = benchmark.pedantic(
        run_preconditioner_table,
        args=(config,),
        kwargs={"preconditioners": PRECONDITIONERS, "n_solves": N_SOLVES},
        iterations=1,
        rounds=1,
    )
    lines = ["Table 2.1 — preconditioner effectiveness (FD solver, regular layout)",
             f"{'preconditioner':<26s} {'iterations/solve':>18s} {'time/solve':>12s}"]
    by_name = {}
    for row in rows:
        by_name[row["preconditioner"]] = row["mean_iterations"]
        lines.append(
            f"{row['preconditioner']:<26s} {row['mean_iterations']:>18.1f} "
            f"{1e3 * row['time_per_solve_s']:>10.1f}ms"
        )
    write_result("table_2_1_preconditioners", lines)

    # shape assertions: the fast-solver preconditioners beat IC and Jacobi,
    # as in the paper's discussion of Section 2.2.2
    fast = min(by_name["fast_poisson_dirichlet"], by_name["fast_poisson_neumann"],
               by_name["fast_poisson_area"])
    assert fast < by_name["ic"]
    assert fast < by_name["jacobi"]
    # the mean is total / N_SOLVES, so rounding recovers the exact total
    records = [
        {"label": name, "total_iterations": round(N_SOLVES * mean)}
        for name, mean in by_name.items()
    ]
    check_golden("table_2_1_preconditioners", records)
