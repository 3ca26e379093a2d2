"""The direct factor's contact-space form ``W = U^-T E`` and when it is used.

A warm direct block needs only ``G = E' A_cc^-1 E = W'W``, whose rank is
the contact count, so a Cholesky-based factor that has served half its
contacts' worth of columns is replaced by ``W`` (plus ``y = W'z`` and
``s = z'z`` on a floating backplane).  These tests hold the promoted answers
to the Cholesky/Schur answers of the same solver at 1e-12, pin when a solver
promotes and when it never does, and check that a promotion frees the
Cholesky, counts no cache lookup, build or artifact write, and is redone
after its entry is evicted.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from repro import (
    DispatchPolicy,
    EigenfunctionSolver,
    FiniteDifferenceSolver,
    SubstrateProfile,
    alternating_size_grid,
    factor_cache,
    factor_cache_clear,
    factor_cache_info,
    regular_grid,
)
from repro.geometry.contact import Contact, ContactLayout
from repro.service import JobRequest, Scheduler
from repro.substrate.bem.solver import BEM_FACTOR_KIND
from repro.substrate.factor_cache import FactorArtifactStore
from repro.substrate.parallel import SolverSpec

#: relative agreement of the promoted answers with the Cholesky/Schur ones
AGREEMENT = 1e-12


@pytest.fixture(autouse=True)
def cold_bem_factors():
    """Start without dense BEM factors or an artifact store; leave none behind."""
    factor_cache_clear(BEM_FACTOR_KIND)
    yield
    factor_cache().tier = None
    factor_cache_clear(BEM_FACTOR_KIND)


def _profile(size: float, grounded: bool) -> SubstrateProfile:
    return SubstrateProfile.two_layer_example(size=size, grounded_backplane=grounded)


def _solver(n_side: int, grounded: bool, **kwargs) -> EigenfunctionSolver:
    """A forced-direct solver on the alternating-size grid (n_side per side).

    At 64 panels per side it has 320, 1,280 and 1,024 contact panels for
    16, 64 and 256 contacts, so ``2 n_contacts < ncp`` and it may promote.
    """
    size = 8.0 * n_side
    return EigenfunctionSolver(
        alternating_size_grid(n_side=n_side, size=size),
        _profile(size, grounded),
        max_panels=64,
        dispatch=DispatchPolicy(force_path="direct"),
        **kwargs,
    )


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return float(np.abs(got - want).max()) <= AGREEMENT * float(np.abs(want).max())


def _bem_counts() -> tuple[int, int]:
    kind = factor_cache_info()["by_kind"].get(BEM_FACTOR_KIND, {})
    return kind.get("hits", 0), kind.get("misses", 0)


# ------------------------------------------------------------ same answers
@pytest.mark.parametrize("grounded", [True, False], ids=["grounded", "floating"])
@pytest.mark.parametrize("n_side", [4, 8, 16])
def test_promoted_answers_match_the_cholesky(n_side, grounded):
    solver = _solver(n_side, grounded)
    assert solver.prepare_direct()
    first = solver.direct_factor
    assert first[0] == ("chol" if grounded else "schur")
    n = solver.n_contacts
    assert 2 * n < solver.grid.n_contact_panels
    v = np.random.default_rng(n_side).standard_normal((n, n // 2))

    got = solver.solve_many(v)
    gauges = solver.last_gauge_constants
    assert solver.stats.n_factor_promotions == 1
    assert solver.direct_factor[0] == "contact"

    want, want_gauges = solver._solve_direct_chunk(v, first)
    assert _close(got, want)
    if grounded:
        assert gauges is None and want_gauges is None
    else:
        assert _close(gauges, want_gauges)


def test_promoted_block_wider_than_max_batch_is_chunked(monkeypatch):
    solver = _solver(8, grounded=False, max_batch=24)
    assert solver.prepare_direct()
    schur = solver.direct_factor
    v = np.random.default_rng(1).standard_normal((solver.n_contacts, 64))
    widths = []
    solve_chunk = solver._solve_direct_chunk

    def spy(chunk, factor):
        widths.append((chunk.shape[1], factor[0]))
        return solve_chunk(chunk, factor)

    monkeypatch.setattr(solver, "_solve_direct_chunk", spy)
    got = solver.solve_many(v)
    assert widths == [(24, "contact"), (24, "contact"), (16, "contact")]
    assert solver.last_gauge_constants.shape == (64,)
    want, want_gauges = solve_chunk(v, schur)
    assert _close(got, want)
    assert _close(solver.last_gauge_constants, want_gauges)


# ------------------------------------------------------------------- the rule
def test_serve_cold_engine_stays_on_the_cholesky():
    """Driven as serve-cold drives an engine (``prepare_direct``, then 8, 2
    and 2 columns), a 256-contact, 1,024-panel engine serves 12 columns, far
    below the 128 at which building ``W`` would have paid."""
    profile = SubstrateProfile.two_layer_example(size=128.0, resistive_bottom=True)
    layout = regular_grid(n_side=16, size=128.0, fill=0.3)
    solver = EigenfunctionSolver(layout, profile, max_panels=256)
    assert (solver.grid.n_contact_panels, solver.n_contacts) == (1024, 256)
    assert solver.prepare_direct()
    eye = np.eye(solver.n_contacts)
    for start, width in ((0, 8), (8, 2), (10, 2)):
        solver.solve_many(eye[:, start : start + width])
        assert solver.last_dispatch.path == "direct"
    assert solver.stats.n_direct_solves == 12
    assert solver.stats.n_factor_promotions == 0
    assert solver.direct_factor[0] == "chol"


def test_promotes_once_when_direct_columns_reach_half_the_contacts():
    """16 contacts: blocks of 3 and 4 columns stay on the Cholesky, the next
    column reaches 8 and promotes, and later blocks find the promoted entry.
    The promotion counts no cache lookup and no build."""
    solver = _solver(4, grounded=True)
    v = np.random.default_rng(2).standard_normal((solver.n_contacts, 4))
    hits, misses = _bem_counts()
    for width, promotions in ((3, 0), (4, 0), (1, 1), (4, 1), (4, 1)):
        solver.solve_many(v[:, :width])
        assert solver.stats.n_factor_promotions == promotions
        assert solver.direct_factor[0] == ("contact" if promotions else "chol")
    assert solver.stats.n_factor_rebuilds == 1
    # one lookup per block: the first misses, the other four hit
    assert _bem_counts() == (hits + 4, misses + 1)


def _full_width(solver) -> None:
    solver.solve_many(np.eye(solver.n_contacts))
    assert solver.last_dispatch.path == "direct"
    assert solver.stats.n_factor_promotions == 0


def test_two_panels_per_contact_never_promote():
    """At ``ncp = 2 n_contacts`` a column on ``W`` costs as much as two
    sweeps over the Cholesky, so the factor keeps its form."""
    layout = ContactLayout(
        [Contact(16.0 * i, 16.0 * j, 8.0, 4.0) for i in range(4) for j in range(4)],
        64.0,
        64.0,
    )
    solver = EigenfunctionSolver(
        layout,
        _profile(64.0, grounded=True),
        panels_per_contact=1,
        max_panels=16,
        dispatch=DispatchPolicy(force_path="direct"),
    )
    assert solver.grid.n_contact_panels == 2 * solver.n_contacts
    _full_width(solver)
    assert solver.direct_factor[0] == "chol"


def test_bordered_lu_never_promotes(monkeypatch):
    import repro.substrate.bem.solver as bem_solver

    def failing_cholesky(*args, **kwargs):
        raise LinAlgError("leading minor not positive definite")

    monkeypatch.setattr(bem_solver, "cho_factor", failing_cholesky)
    solver = _solver(4, grounded=False)
    _full_width(solver)
    assert solver.direct_factor[0] == "bordered"


def test_fd_solver_never_promotes():
    layout = regular_grid(n_side=4, size=64.0, fill=0.5)
    solver = FiniteDifferenceSolver(
        layout,
        _profile(64.0, grounded=True),
        nx=8,
        ny=8,
        planes_per_layer=2,
        dispatch=DispatchPolicy(force_path="direct"),
    )
    _full_width(solver)
    factor = solver.direct_factor
    assert solver._contact_form(factor) is factor


# ------------------------------------------------------- where the form lives
def test_promotion_frees_the_cholesky():
    solver = _solver(8, grounded=True)
    assert solver.prepare_direct()
    cholesky = weakref.ref(solver.direct_factor[1][0])
    cholesky_bytes = factor_cache_info()["by_kind"][BEM_FACTOR_KIND]["bytes"]
    assert cholesky_bytes > cholesky().nbytes

    solver.solve_many(np.eye(solver.n_contacts)[:, : solver.n_contacts // 2])
    gc.collect()
    assert cholesky() is None
    kind, w, y, s = solver.direct_factor
    assert (kind, y, s) == ("contact", None, None)
    assert not w.flags.writeable
    info = factor_cache_info()["by_kind"][BEM_FACTOR_KIND]
    assert info["entries"] == 1
    assert w.nbytes < info["bytes"] < w.nbytes + 1024
    assert info["bytes"] < cholesky_bytes / 10  # 1,280 panels, 64 contacts


def test_private_factor_is_promoted_in_place():
    solver = _solver(4, grounded=False, use_factor_cache=False)
    solver.solve_many(np.eye(solver.n_contacts))
    assert solver.stats.n_factor_promotions == 1
    assert solver._private_factor[0] == "contact"
    assert not factor_cache().contains(solver.factor_cache_key)


def test_evicted_promoted_entry_is_rebuilt_and_promoted_again():
    solver = _solver(4, grounded=False)
    v = np.random.default_rng(3).standard_normal((solver.n_contacts, 8))
    first = solver.solve_many(v)
    assert (solver.stats.n_factor_rebuilds, solver.stats.n_factor_promotions) == (1, 1)

    factor_cache_clear(BEM_FACTOR_KIND)
    assert solver.direct_factor is None
    again = solver.solve_many(v[:, :1])  # the demand is already past n_contacts / 2
    assert (solver.stats.n_factor_rebuilds, solver.stats.n_factor_promotions) == (2, 2)
    assert solver.direct_factor[0] == "contact"
    assert _close(again, first[:, :1])


def test_promotion_writes_no_artifact_and_a_reload_promotes_again(tmp_path):
    """The artifact store keeps the Cholesky only: the promoted entry's
    write-through finds its key's artifact and writes nothing, and after an
    eviction the Cholesky is loaded, not rebuilt, and promoted again."""
    store = FactorArtifactStore(tmp_path)
    factor_cache().tier = store
    solver = _solver(4, grounded=True)
    v = np.random.default_rng(4).standard_normal((solver.n_contacts, 8))
    solver.solve_many(v[:, :2])
    assert solver.stats.n_factor_promotions == 0
    files = sorted(tmp_path.iterdir())
    saved = store.info()

    solver.solve_many(v)
    assert solver.stats.n_factor_promotions == 1
    assert sorted(tmp_path.iterdir()) == files
    assert store.info() == saved

    factor_cache_clear(BEM_FACTOR_KIND)
    solver.solve_many(v[:, :1])
    assert solver.stats.n_factor_rebuilds == 1
    assert solver.stats.n_factor_promotions == 2
    assert solver.direct_factor[0] == "contact"
    info = store.info()
    assert info["hits"] == 1
    assert (info["saves"], info["save_skips"]) == (saved["saves"], saved["save_skips"])
    assert sorted(tmp_path.iterdir()) == files


def test_service_stats_report_promotions():
    """``/v1/stats``'s ``solve_stats`` counts the promotion; the factor cache
    still sees one lookup per solve call and one build."""
    layout = regular_grid(n_side=4, size=64.0, fill=0.5)
    spec = SolverSpec.bem(layout, _profile(64.0, grounded=True), max_panels=32)
    hits, misses = _bem_counts()
    with Scheduler(autostart=False) as scheduler:
        for columns in (range(0, 6), range(6, 16)):
            scheduler.submit(JobRequest(spec, columns=tuple(columns)))
            scheduler.step()
        stats = scheduler.stats()
    solve_stats = stats["solve_stats"]
    assert solve_stats["n_direct_solves"] == 16
    assert solve_stats["n_factor_promotions"] == 1
    kind = stats["factor_cache"]["by_kind"][BEM_FACTOR_KIND]
    # the engine's build is one miss, each of the two solve calls one hit
    assert (kind["hits"], kind["misses"]) == (hits + 2, misses + 1)
