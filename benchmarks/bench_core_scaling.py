"""Core scaling probe: the two sparsification sweeps with a synthetic black box.

Times each phase of the paper's two methods when the black box costs only a
dense matrix product, so the numbers are the Python and linear algebra of
``repro.core`` itself:

* low rank: ``LowRankSparsifier.build`` (the coarse-to-fine row-basis sweep)
  and ``to_sparsified`` (the fine-to-coarse sweep and the ``Q Gw Q'``
  assembly);
* wavelet: ``WaveletSparsifier(...)`` (the basis) and ``extract``;
* hierarchy: ``SquareHierarchy(...)``, the square numbering and the
  neighbourhood arrays both methods read.

The black box is ``DenseMatrixSolver`` over the synthetic kernel
``G_ij = -1 / (1 + d_ij)`` between contact centroids of
``alternating_size_grid`` (the Table 4.1 layout), with a dominant diagonal.
The quadtree has four contacts per finest square.  Solve counts (and, at
1,024 contacts, nnz of both methods' ``Q`` and ``Gw``) are exact integers and
are asserted; the times are printed.

Run with:  python benchmarks/bench_core_scaling.py            (1,024 and 4,096 contacts)
           python benchmarks/bench_core_scaling.py 4096       (one size)
Under pytest only the 1,024-contact size runs (its counts are asserted).
"""

from __future__ import annotations

import resource
import sys
import time

import numpy as np

from common import ensure_repro_importable

ensure_repro_importable()

from repro import (
    ContactLayout,
    CountingSolver,
    DenseMatrixSolver,
    SquareHierarchy,
    alternating_size_grid,
)
from repro.core.lowrank import LowRankSparsifier
from repro.core.wavelet import WaveletSparsifier

#: (low-rank, wavelet) black-box solves per contact count
EXPECTED_SOLVES = {256: (297, 186), 1024: (492, 348), 4096: (697, 510)}
#: (low-rank, wavelet) nnz of Q and Gw, so a reordering the paper tables cannot see fails
EXPECTED_NNZ = {1024: {"nnz_q": (27904, 71680), "nnz_gw": (313736, 412192)}}
PHASES = ("hierarchy", "rowbasis_build", "to_sparsified", "wavelet_basis", "wavelet_extract")


def synthetic_problem(n_contacts: int) -> tuple[ContactLayout, int, DenseMatrixSolver]:
    """The layout, its quadtree depth and the dense synthetic-kernel black box."""
    n_side = int(round(np.sqrt(n_contacts)))
    if n_side * n_side != n_contacts:
        raise ValueError(f"{n_contacts} contacts is not a square grid")
    layout = alternating_size_grid(n_side=n_side, size=8.0 * n_side)
    xy = np.array([c.centroid for c in layout.contacts])
    dist = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
    g = -1.0 / (1.0 + dist)
    np.fill_diagonal(g, 0.0)
    g[np.diag_indices_from(g)] = 1.0 - g.sum(axis=1)
    return layout, max(2, (n_side - 1).bit_length()), DenseMatrixSolver(g, layout)


def run(n_contacts: int) -> dict:
    """Phase times (s) and solve counts of both methods at one size."""
    layout, max_level, black_box = synthetic_problem(n_contacts)
    times: dict[str, float] = {}
    start = time.perf_counter()
    hierarchy = SquareHierarchy(layout, max_level=max_level)
    times["hierarchy"] = time.perf_counter() - start

    counting = CountingSolver(black_box)
    lowrank = LowRankSparsifier(hierarchy, max_rank=6)
    start = time.perf_counter()
    lowrank.build(counting)
    times["rowbasis_build"] = time.perf_counter() - start
    start = time.perf_counter()
    rep_l = lowrank.to_sparsified()
    times["to_sparsified"] = time.perf_counter() - start
    lowrank_solves = counting.solve_count

    counting = CountingSolver(black_box)
    start = time.perf_counter()
    wavelet = WaveletSparsifier(hierarchy, order=2)
    times["wavelet_basis"] = time.perf_counter() - start
    start = time.perf_counter()
    rep_w = wavelet.extract(counting)
    times["wavelet_extract"] = time.perf_counter() - start
    wavelet_solves = counting.solve_count

    return {
        "n_contacts": n_contacts,
        "times": times,
        "solves": (lowrank_solves, wavelet_solves),
        "rep_solves": (rep_l.n_solves, rep_w.n_solves),
        "nnz_gw": (rep_l.nnz_gw, rep_w.nnz_gw),
        "nnz_q": (rep_l.nnz_q, rep_w.nnz_q),
    }


def report(result: dict) -> str:
    times = result["times"]
    cells = "  ".join(f"{name}={times[name]:7.2f}s" for name in PHASES)
    lowrank, wavelet = result["solves"]
    return (
        f"n={result['n_contacts']:5d}  {cells}  core={sum(times.values()):7.2f}s  "
        f"solves lowrank={lowrank} wavelet={wavelet}  nnz(Gw)={result['nnz_gw']}  "
        f"nnz(Q)={result['nnz_q']}"
    )


def check(result: dict) -> list[str]:
    failures = []
    if result["solves"] != result["rep_solves"]:
        failures.append(f"counted {result['solves']} solves, reported {result['rep_solves']}")
    want = EXPECTED_SOLVES.get(result["n_contacts"])
    if want is not None and result["solves"] != want:
        failures.append(f"n={result['n_contacts']}: solves {result['solves']}, expected {want}")
    want = EXPECTED_NNZ.get(result["n_contacts"])
    got = {"nnz_q": result["nnz_q"], "nnz_gw": result["nnz_gw"]}
    if want is not None and got != want:
        failures.append(f"n={result['n_contacts']}: {got}, expected {want}")
    return failures


def test_core_scaling_1024_contacts():
    result = run(1024)
    print("\n" + report(result))
    assert check(result) == []


def main(argv: list[str]) -> None:
    sizes = [int(arg) for arg in argv] or [1024, 4096]
    failures = []
    for n_contacts in sizes:
        result = run(n_contacts)
        print(report(result), flush=True)
        failures.extend(check(result))
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak RSS {peak_mib:.0f} MiB")
    if failures:
        raise SystemExit("\n".join(failures))


if __name__ == "__main__":
    main(sys.argv[1:])
