"""``extract-paper``: the paper's Table 4.1 flow on a 256-contact layout.

Layout and solver are those of ``examples/large_layout_extraction.py 16``:
the alternating-size grid with 16 contacts per side, the two-layer profile
with a resistive bottom, ``EigenfunctionSolver(max_panels=256)`` and a
depth-4 quadtree.  One *flow* runs both of the paper's methods through one
``CountingSolver``:

* low rank: ``LowRankSparsifier(max_rank=6)`` ``build`` + ``to_sparsified``;
* wavelet: ``WaveletSparsifier(order=2)`` construction + ``extract``;

thresholds each representation to be 6x sparser (Section 4.6), then applies
both to seeded blocks of voltage vectors.  Set-up builds the solver and
the exact ``G`` every representation is checked against.
"""

from __future__ import annotations

import time

import numpy as np

from common import Outcome, cache_counters, delta, median, reset_process_caches
from spans import instrument, layer_metrics

N_SIDE = 16
MAX_RANK = 6
WAVELET_ORDER = 2
QUADTREE_DEPTH = 4
#: thresholded representations are this many times sparser than unthresholded
THRESHOLD_MULTIPLIER = 6.0
#: voltage vectors per applied block, seeded blocks, and passes over the
#: blocks per flow (about 1.5 s of matmat).  On a shared 2-vCPU host the
#: speed of one pass swings up to 2x within and between runs, and even the
#: mean rate of a run's passes moved 0.34 (IQR/median) between runs.  So
#: the apply rate is that of the run's fastest pass, as ``timeit`` reports.
APPLY_VECTORS = 64
APPLY_BLOCKS = 40
APPLY_PASSES = 24
SETUP_REPEATS = 3
#: ceilings on the maximum entry-wise relative error against the exact G.
#: Thresholding makes the smallest entries of G very inaccurate in relative
#: terms (the paper's Table 4.2), so these sit above the measured values
#: (1.11 and 39.5) rather than near zero; the norm-wise ceiling below is the
#: tight one.
LOWRANK_REL_ERR_CEILING = 1.5
WAVELET_REL_ERR_CEILING = 50.0
#: ceiling on ||G_rep - G||_F / ||G||_F for either representation
FROBENIUS_REL_ERR_CEILING = 0.05
#: matmat must equal the representation's dense Q Gw Q' to this relative error
APPLY_RTOL = 1e-10


def _problem():
    from repro import SubstrateProfile, alternating_size_grid

    size = 8.0 * N_SIDE
    layout = alternating_size_grid(n_side=N_SIDE, size=size)
    profile = SubstrateProfile.two_layer_example(size=size, resistive_bottom=True)
    return layout, profile


def _setup(layout, profile):
    """Solver construction and the exact G (one set-up)."""
    from repro import EigenfunctionSolver
    from repro.substrate import extract_dense

    reset_process_caches()
    start = time.perf_counter()
    solver = EigenfunctionSolver(layout, profile, max_panels=256)
    g_exact = extract_dense(solver)
    return time.perf_counter() - start, solver, g_exact


def _flow(solver, layout, voltages, tracer, index: int) -> dict:
    """One Table 4.1 extraction with both methods, then the apply loop."""
    from repro import CountingSolver, SquareHierarchy
    from repro.core.lowrank import LowRankSparsifier
    from repro.core.wavelet import WaveletSparsifier

    token = None
    if tracer is not None:
        tracer.set_request(f"flow-{index}")
        token = tracer.open("extract.flow")
    counting = CountingSolver(solver)
    start = time.perf_counter()
    hierarchy = SquareHierarchy(layout, max_level=QUADTREE_DEPTH)
    lowrank = LowRankSparsifier(hierarchy, max_rank=MAX_RANK)
    lowrank.build(counting)
    rep_l = lowrank.to_sparsified()
    rep_lt = rep_l.threshold_to_sparsity(rep_l.sparsity_factor() * THRESHOLD_MULTIPLIER)
    lowrank_done = time.perf_counter()
    wavelet = WaveletSparsifier(hierarchy, order=WAVELET_ORDER)
    rep_w = wavelet.extract(counting)
    rep_wt = rep_w.threshold_to_sparsity(rep_w.sparsity_factor() * THRESHOLD_MULTIPLIER)
    wavelet_done = time.perf_counter()
    pass_s = []
    for _ in range(APPLY_PASSES):
        pass_start = time.perf_counter()
        for block in voltages:
            rep_lt.matmat(block)
            rep_wt.matmat(block)
        pass_s.append(time.perf_counter() - pass_start)
    if tracer is not None:
        tracer.close(token)
    return {
        "lowrank_s": lowrank_done - start,
        "wavelet_s": wavelet_done - lowrank_done,
        "pass_s": pass_s,
        "solves": counting.solve_count,
        "rep_solves": rep_l.n_solves + rep_w.n_solves,
        "lowrank": rep_lt,
        "wavelet": rep_wt,
    }


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    from repro.analysis.metrics import evaluate_against_dense

    out = Outcome()
    layout, profile = _problem()
    n = layout.n_contacts
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_s, solver, g_exact = _setup(layout, profile)
        setups.append(setup_s)
    rng = np.random.default_rng(seed)
    voltages = [rng.standard_normal((n, APPLY_VECTORS)) for _ in range(APPLY_BLOCKS)]

    stats0 = solver.stats.as_dict()
    cache0 = cache_counters()
    if tracer is not None:
        instrument(tracer)
    flows = []
    start = time.perf_counter()
    try:
        while not flows or time.perf_counter() - start < seconds:
            flows.append(_flow(solver, layout, voltages, tracer, len(flows)))
    finally:
        out.wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    stats = delta(solver.stats.as_dict(), stats0)
    cache = delta(cache_counters(), cache0)

    # ---- output checks (after the timed phase)
    first = flows[0]
    errs = {}
    for method in ("lowrank", "wavelet"):
        rep = first[method]
        report = evaluate_against_dense(rep, g_exact)
        dense = rep.to_dense()
        errs[method] = report.max_relative_error
        errs[method + "_frobenius"] = float(
            np.linalg.norm(dense - g_exact) / np.linalg.norm(g_exact)
        )
        block = voltages[0]
        applied = rep.matmat(block)
        want = dense @ block
        apply_err = float(np.abs(applied - want).max() / np.abs(want).max())
        out.check(
            apply_err <= APPLY_RTOL,
            f"{method} matmat differs from its dense Q Gw Q' by {apply_err:.2e}",
        )
        out.check(
            errs[method + "_frobenius"] <= FROBENIUS_REL_ERR_CEILING,
            f"{method} Frobenius relative error {errs[method + '_frobenius']:.3g} "
            f"above {FROBENIUS_REL_ERR_CEILING}",
        )
    out.check(
        errs["lowrank"] <= LOWRANK_REL_ERR_CEILING,
        f"low-rank max relative error {errs['lowrank']:.3g} above {LOWRANK_REL_ERR_CEILING}",
    )
    out.check(
        errs["wavelet"] <= WAVELET_REL_ERR_CEILING,
        f"wavelet max relative error {errs['wavelet']:.3g} above {WAVELET_REL_ERR_CEILING}",
    )
    out.attempted = len(flows)
    for flow in flows:
        bad = []
        if flow["solves"] != flow["rep_solves"]:
            bad.append(
                f"CountingSolver saw {flow['solves']} solves, the representations "
                f"report {flow['rep_solves']}"
            )
        if flow["solves"] != first["solves"]:
            bad.append(f"solve count {flow['solves']} differs from {first['solves']}")
        for method in ("lowrank", "wavelet"):
            rep, ref = flow[method], first[method]
            if (rep.nnz_gw, rep.nnz_q) != (ref.nnz_gw, ref.nnz_q):
                bad.append(f"{method} sparsity differs between flows")
        if bad:
            out.failed += 1
            out.errors.extend(bad)
    if out.errors:
        # every flow builds the same representations, so a failed check on
        # them fails every flow
        out.failed = out.attempted

    # ---- metrics
    fastest_pass_s = min(s for f in flows for s in f["pass_s"])
    out.end_to_end = {
        "setup_s": median(setups),
        "latency_p50_s": median([f["lowrank_s"] + f["wavelet_s"] for f in flows]),
        # apply_vps: voltage vectors through matmat of both representations,
        # each giving one column of G V
        "columns_per_s": APPLY_BLOCKS * APPLY_VECTORS / fastest_pass_s,
    }
    out.details = {
        "solves_per_column": (first["solves"] / (2 * n), "ratio"),
        "flows": (len(flows), "count"),
        "lowrank_s": (median([f["lowrank_s"] for f in flows]), "s"),
        "wavelet_s": (median([f["wavelet_s"] for f in flows]), "s"),
        "solves": (first["solves"], "count"),
        "lowrank_rel_err": (errs["lowrank"], "ratio"),
        "wavelet_rel_err": (errs["wavelet"], "ratio"),
        "lowrank_frobenius_rel_err": (errs["lowrank_frobenius"], "ratio"),
        "wavelet_frobenius_rel_err": (errs["wavelet_frobenius"], "ratio"),
        "error_rate": (out.failed / out.attempted, "ratio"),
    }
    layer = {
        "substrate.solve.iterations": stats["total_iterations"],
        "substrate.solve.iterative_columns": stats["n_iterative_solves"],
        "substrate.solve.direct_columns": stats["n_direct_solves"],
        "substrate.factor.builds": cache["factor_builds"],
        "substrate.factor_cache.hits": cache["hits"],
        "substrate.factor_cache.misses": cache["misses"],
    }
    for method in ("lowrank", "wavelet"):
        layer[f"core.sparsified.{method}.nnz_gw"] = first[method].nnz_gw
        layer[f"core.sparsified.{method}.nnz_q"] = first[method].nnz_q
    if tracer is not None:
        layer.update(layer_metrics(tracer, out.wall_s, top_level=("extract.flow",)))
    out.per_layer = layer
    return out
