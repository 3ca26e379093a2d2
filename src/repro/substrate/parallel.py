"""Process-parallel extraction engine.

Extraction cost is dominated by repeated black-box solves over the same
substrate (Sections 1.2 and 4 of the paper); PRs 1-2 amortised work *within*
one solver process via batching and adaptive dispatch.  This module shards a
``solve_many`` block's columns across a pool of worker **processes**, each of
which rebuilds its solver once from a picklable :class:`SolverSpec` and then
serves contiguous column shards.  Because every extraction path in the
package (``extract_dense`` / ``extract_columns`` / the wavelet and low-rank
sparsifiers) already submits its right-hand sides through
``SubstrateSolver.solve_many``, the :class:`ParallelExtractor` simply *is* a
:class:`~repro.substrate.solver_base.SubstrateSolver` — drop it in wherever a
solver is expected and the whole extraction fans out.

Design points:

* **Attribution is unchanged.**  A block of ``k`` columns is charged as ``k``
  black-box solves no matter how it is sharded; wrapping the extractor in a
  :class:`~repro.substrate.solver_base.CountingSolver` reports exactly the
  serial counts (pinned by tests), so the paper's solve-reduction metric is
  invariant under parallelisation.
* **Per-process statistics merge.**  Every task returns its worker's
  :class:`~repro.substrate.solver_base.SolveStats` delta; the extractor folds
  them into one report via :meth:`SolveStats.merge`.
* **No thread oversubscription.**  Workers build their solver with
  ``fft_workers=1`` — the parallelism budget is spent on processes, and the
  stacked DCTs inside each worker must not spawn a second level of threads.
* **Shared-memory result blocks.**  Result columns are written into one
  ``multiprocessing.shared_memory`` block instead of being pickled back
  (falling back to pickled returns where shared memory is unavailable).
* **Shared-memory factor plane.**  With ``share_factors`` (the default) the
  parent publishes its cached direct factor (dense BEM Cholesky / Schur /
  bordered factors, the FD sparse-LU components) into
  ``multiprocessing.shared_memory`` segments through a
  :class:`~repro.substrate.factor_cache.FactorPlane`; every worker *attaches*
  zero-copy views instead of refactoring, so the fleet holds one physical
  copy of the factor no matter how many processes serve solves.  Workers
  report ``n_factor_attaches`` / ``n_factor_rebuilds`` through the merged
  :class:`~repro.substrate.solver_base.SolveStats` — a warm parent cache must
  show zero per-worker rebuilds.  Segments are unlinked at ``close()``.
* **Per-process factor caches.**  Each worker owns its own process-wide
  :mod:`~repro.substrate.factor_cache` (seeded by the plane's attachments);
  passing ``prepare_direct=True`` warms the factorisation once in the parent
  during pool start-up so timed extraction measures solves, not factoring.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from threading import BrokenBarrierError
from typing import Any

import multiprocessing as mp
import numpy as np

from ..faults import fault_hook
from ..geometry.contact import ContactLayout
from .factor_cache import FactorPlane, attach_shared_factor, factor_cache
from .profile import SubstrateProfile
from .solver_base import SolveStats, SubstrateSolver

__all__ = [
    "SolverSpec",
    "ParallelExtractor",
    "PoolWarmupError",
    "solve_in_subprocess",
]

#: exception types that mean "the worker pool is broken, not the physics":
#: a worker process died (BrokenProcessPool is a BrokenExecutor subclass) or
#: the warm-up barrier was broken by a sibling's death/timeout.  These are
#: the supervised extractor's rebuild triggers — anything else propagates.
POOL_FAILURE_ERRORS = (BrokenExecutor, BrokenBarrierError, OSError, EOFError)


class PoolWarmupError(RuntimeError):
    """The worker pool failed to come up (worker death / broken barrier).

    Raised by :meth:`ParallelExtractor.warm_up` instead of leaking a raw
    ``BrokenProcessPool`` / ``BrokenBarrierError`` (or hanging the caller on
    a barrier no dead worker will ever reach).  The pool has already been
    shut down when this propagates; the extractor may be retried — a fresh
    ``warm_up()`` builds a new pool.
    """

#: solver kinds a spec can describe
SPEC_KINDS = ("bem", "fd", "dense")


@dataclass(frozen=True)
class SolverSpec:
    """Picklable recipe for rebuilding a substrate solver in another process.

    Parameters
    ----------
    kind:
        ``"bem"`` (:class:`~repro.substrate.bem.solver.EigenfunctionSolver`),
        ``"fd"`` (:class:`~repro.substrate.fd.solver.FiniteDifferenceSolver`)
        or ``"dense"`` (:class:`~repro.substrate.solver_base.DenseMatrixSolver`
        around ``options["matrix"]``).
    layout:
        The contact layout (plain data, pickles by value).
    profile:
        The substrate profile (``None`` for ``"dense"``).
    options:
        Keyword arguments forwarded to the solver constructor.  Keep these to
        plain picklable values; live objects (dispatch policies, operators)
        are rebuilt by the constructor in the target process.
    """

    kind: str
    layout: ContactLayout
    profile: SubstrateProfile | None = None
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in SPEC_KINDS:
            raise ValueError(f"kind must be one of {SPEC_KINDS}, got {self.kind!r}")
        if self.kind != "dense" and self.profile is None:
            raise ValueError(f"kind {self.kind!r} requires a substrate profile")
        if self.kind == "dense" and "matrix" not in self.options:
            raise ValueError('kind "dense" requires options["matrix"]')

    # ------------------------------------------------------------ constructors
    @classmethod
    def bem(
        cls, layout: ContactLayout, profile: SubstrateProfile, **options: Any
    ) -> "SolverSpec":
        return cls("bem", layout, profile, options)

    @classmethod
    def fd(
        cls, layout: ContactLayout, profile: SubstrateProfile, **options: Any
    ) -> "SolverSpec":
        return cls("fd", layout, profile, options)

    @classmethod
    def dense(cls, matrix: np.ndarray, layout: ContactLayout) -> "SolverSpec":
        return cls("dense", layout, None, {"matrix": np.asarray(matrix, dtype=float)})

    # -------------------------------------------------------------- identity
    @property
    def fingerprint(self) -> str:
        """Identity of the substrate *and* solver configuration, as a digest.

        Two specs with equal fingerprints build solvers that return the same
        currents for the same voltages (same physics, same discretisation,
        same tolerances), so their work may be coalesced, their results
        shared, and their factors reused — this is the key the extraction
        service groups concurrent jobs under.  The digest covers the kind,
        the layout's fingerprint (every contact), the profile's cache key and
        every option: plain values via ``repr``, array options (the dense
        matrix) via a content digest.  The key is the 32-hex-character
        blake2b-128 of that identity tuple's ``repr`` rather than the tuple
        itself — about 1,300 values for a 256-contact layout — so the
        service's per-column tables hash and compare a short string, and
        the same text keys sqlite rows, ``/v1/stats`` and cluster pins.
        Computed once per (immutable) spec.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        items = []
        for key in sorted(self.options):
            value = self.options[key]
            if isinstance(value, np.ndarray):
                digest = hashlib.blake2b(
                    np.ascontiguousarray(value).tobytes(), digest_size=16
                ).hexdigest()
                items.append((key, ("ndarray", value.shape, digest)))
            else:
                items.append((key, repr(value)))
        profile_key = None if self.profile is None else self.profile.cache_key
        identity = (self.kind, self.layout.fingerprint, profile_key, tuple(items))
        cached = hashlib.blake2b(repr(identity).encode(), digest_size=16).hexdigest()
        object.__setattr__(self, "_fingerprint", cached)
        return cached

    # ------------------------------------------------------------------- build
    def build(self, **overrides: Any) -> SubstrateSolver:
        """Construct the solver this spec describes.

        ``overrides`` take precedence over the stored ``options`` (the worker
        pool uses this to pin ``fft_workers=1``); they are ignored for the
        ``"dense"`` kind, which has no tuning knobs.
        """
        if self.kind == "dense":
            from .solver_base import DenseMatrixSolver

            return DenseMatrixSolver(self.options["matrix"], self.layout)
        opts = {**self.options, **overrides}
        if self.kind == "bem":
            from .bem.solver import EigenfunctionSolver

            return EigenfunctionSolver(self.layout, self.profile, **opts)
        from .fd.solver import FiniteDifferenceSolver

        return FiniteDifferenceSolver(self.layout, self.profile, **opts)


# --------------------------------------------------------------------- workers
#: the worker process's solver, built once per process by the pool initializer
_WORKER_SOLVER: SubstrateSolver | None = None
#: True when this worker must untrack shared-memory segments it attaches to
#: (spawn/forkserver start a private resource tracker per worker; fork
#: inherits the parent's, which owns the segment's registration)
_WORKER_UNREGISTER_SHM = False
#: live references to attached factor segments (the reconstructed factors
#: borrow their buffers, so the segments must outlive the worker's cache)
_WORKER_ATTACHED_SEGMENTS: list = []
#: init-time factor provenance of this worker, reported once through the
#: first solve shard's stats delta (init precedes any delta snapshot)
_WORKER_FACTOR_COUNTS = {"attached": 0, "rebuilt": 0}
_WORKER_FACTOR_REPORTED = False


def _init_worker(
    spec: SolverSpec,
    overrides: dict,
    prepare_direct: bool,
    unregister_shm: bool,
    shared_handles: tuple = (),
    prepare_tiled: bool = False,
) -> None:
    global _WORKER_SOLVER, _WORKER_UNREGISTER_SHM, _WORKER_FACTOR_REPORTED
    _WORKER_UNREGISTER_SHM = unregister_shm
    _WORKER_FACTOR_REPORTED = False
    _WORKER_FACTOR_COUNTS["attached"] = 0
    _WORKER_FACTOR_COUNTS["rebuilt"] = 0
    # adopt the parent's published factors before any solver can factor:
    # the cache hit below turns every worker's prepare into a zero-copy view
    for handle in shared_handles:
        try:
            factor, segment = attach_shared_factor(handle, unregister=unregister_shm)
        except Exception:
            continue  # attach is an optimisation; the worker can still factor
        _WORKER_ATTACHED_SEGMENTS.append(segment)
        # nbytes=0: the pages are shared with every sibling, charging them
        # against this worker's private cache budget would evict real entries
        factor_cache().put(handle.key, factor, nbytes=0)
        _WORKER_FACTOR_COUNTS["attached"] += 1
    _WORKER_SOLVER = spec.build(**overrides)
    if prepare_direct:
        prepare = getattr(_WORKER_SOLVER, "prepare_direct", None)
        if prepare is not None:
            prepare()
    if prepare_tiled:
        prepare = getattr(_WORKER_SOLVER, "prepare_tiled", None)
        if prepare is not None:
            prepare()
    stats = getattr(_WORKER_SOLVER, "stats", None)
    if stats is not None:
        _WORKER_FACTOR_COUNTS["rebuilt"] += stats.n_factor_rebuilds


def _unreported_factor_counts() -> tuple[int, int]:
    """Init-time (attached, rebuilt) counts, returned once per worker."""
    global _WORKER_FACTOR_REPORTED
    if _WORKER_FACTOR_REPORTED:
        return 0, 0
    _WORKER_FACTOR_REPORTED = True
    return _WORKER_FACTOR_COUNTS["attached"], _WORKER_FACTOR_COUNTS["rebuilt"]


def _solve_with_stats_delta(
    solver: SubstrateSolver, v: np.ndarray
) -> tuple[np.ndarray, SolveStats]:
    """Solve a block and return the solve's :class:`SolveStats` delta.

    The solver's cumulative ``stats`` keep growing — iteration-aware dispatch
    (the FD solver's ``_expected_iterations``) feeds on the observed history,
    so it must survive across blocks — and the delta for this block alone is
    reconstructed from before/after counter snapshots.
    """
    stats = getattr(solver, "stats", None)
    if stats is None:
        stats = SolveStats()
        solver.stats = stats
    snap = (
        stats.n_iterative_solves,
        stats.n_direct_solves,
        stats.total_iterations,
        len(stats.iterations_per_solve),
        stats.n_factor_attaches,
        stats.n_factor_rebuilds,
    )
    out = solver.solve_many(v)
    stats = solver.stats
    delta = SolveStats(
        n_iterative_solves=stats.n_iterative_solves - snap[0],
        n_direct_solves=stats.n_direct_solves - snap[1],
        total_iterations=stats.total_iterations - snap[2],
        iterations_per_solve=list(stats.iterations_per_solve[snap[3]:]),
        n_factor_attaches=stats.n_factor_attaches - snap[4],
        n_factor_rebuilds=stats.n_factor_rebuilds - snap[5],
    )
    return out, delta


def _solve_shard(
    v_shard: np.ndarray, start: int, shm_name: str | None, shape: tuple[int, int]
):
    """Solve one contiguous column shard on the worker's persistent solver.

    Returns ``(start, width, result-or-None, stats delta, gauge constants)``;
    the result travels through the named shared-memory block when one is
    given, otherwise it is pickled back.
    """
    # chaos hook: an active fault plan can kill this worker (or delay/fail
    # the shard) deterministically — see repro.faults
    fault_hook("worker.solve", start=start, width=v_shard.shape[1])
    solver = _WORKER_SOLVER
    out, delta = _solve_with_stats_delta(solver, v_shard)
    # fold this worker's init-time factor provenance into its first delta
    attached, rebuilt = _unreported_factor_counts()
    delta.n_factor_attaches += attached
    delta.n_factor_rebuilds += rebuilt
    gauges = getattr(solver, "last_gauge_constants", None)
    width = v_shard.shape[1]
    if shm_name is not None:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=shm_name)
        try:
            block = np.ndarray(shape, dtype=np.float64, buffer=shm.buf)
            block[:, start : start + width] = out
        finally:
            shm.close()
            if _WORKER_UNREGISTER_SHM:
                try:
                    # a spawned worker's private resource tracker must not
                    # treat the parent-owned segment as leaked at exit;
                    # Python < 3.13 lacks SharedMemory(track=False)
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(shm._name, "shared_memory")
                except Exception:
                    pass
        return start, width, None, delta, gauges
    return start, width, out, delta, gauges


def solve_in_subprocess(
    spec: SolverSpec, voltages: np.ndarray, **build_overrides: Any
) -> np.ndarray:
    """Round-trip helper: rebuild ``spec`` in one child process and solve there.

    Spins up a single-worker pool, ships the spec through pickle, solves the
    ``(n, k)`` block in the child and returns the result.  Used by the
    spec round-trip tests and handy for isolating a solve from the parent's
    process-wide caches.
    """
    ctx = _default_context()
    with ProcessPoolExecutor(
        max_workers=1,
        mp_context=ctx,
        initializer=_init_worker,
        initargs=(spec, build_overrides, False, ctx.get_start_method() != "fork"),
    ) as pool:
        v = np.asarray(voltages, dtype=float)
        _, _, out, _, _ = pool.submit(_solve_shard, v, 0, None, v.shape).result()
    return out


def _default_context() -> mp.context.BaseContext:
    """Fork where available (cheap start-up, inherits imports), else spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _rendezvous(barrier) -> tuple[int, int]:
    """Hold one worker at a barrier until every worker has arrived.

    Each waiting worker occupies itself, so the pool cannot hand two
    rendezvous tasks to the same worker — by the time the barrier releases,
    every worker process has finished its (solver-building, possibly
    factoring) initializer.  Returns the worker's init-time factor
    provenance ``(attached, rebuilt)`` — exactly one rendezvous runs per
    worker, so the caller collects every worker's counts deterministically.
    """
    barrier.wait(timeout=600)
    return _unreported_factor_counts()


class ParallelExtractor(SubstrateSolver):
    """Substrate solver that shards ``solve_many`` columns across processes.

    Parameters
    ----------
    spec:
        Recipe for the solver every worker builds once at pool start-up.
    n_workers:
        Worker-process count; default ``os.cpu_count()``.  With one worker
        (or blocks too narrow to shard) the extractor solves inline on a
        private solver — no pool, no IPC.
    prepare_direct:
        Warm the direct factorisation during pool initialisation, so timed
        extraction measures solves only.  With ``share_factors`` the factor
        is built **once in the parent** and published to the plane; without
        it every worker runs its own ``prepare_direct()``.
    prepare_tiled:
        Same warm-up hook for the out-of-core tiled factorisation
        (``prepare_tiled()`` on solvers that have one).  In-RAM tiled
        factors travel through the factor plane like dense ones; spilled
        factors stay per-process and every worker rebuilds its own.
    min_parallel_columns:
        Blocks narrower than this are solved inline; sharding two columns
        across processes costs more in IPC than it saves.
    use_shared_memory:
        Write result shards into one ``multiprocessing.shared_memory`` block
        (automatic fallback to pickled returns when allocation fails).
    start_method:
        Override the multiprocessing start method (default: ``"fork"`` where
        available, else ``"spawn"``).
    share_factors:
        Publish the parent's cached direct factor through a shared-memory
        :class:`~repro.substrate.factor_cache.FactorPlane` so workers attach
        zero-copy instead of refactoring (default on; ignored for ``"dense"``
        specs, which have no factor).  Disable to benchmark per-worker
        refactorisation.
    """

    def __init__(
        self,
        spec: SolverSpec,
        n_workers: int | None = None,
        prepare_direct: bool = False,
        min_parallel_columns: int = 8,
        use_shared_memory: bool = True,
        start_method: str | None = None,
        share_factors: bool = True,
        prepare_tiled: bool = False,
        max_pool_rebuilds: int = 2,
    ) -> None:
        self.spec = spec
        self.layout = spec.layout
        self.n_workers = int(n_workers) if n_workers is not None else (os.cpu_count() or 1)
        if self.n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        self.prepare_direct = bool(prepare_direct)
        self.prepare_tiled = bool(prepare_tiled)
        self.min_parallel_columns = int(min_parallel_columns)
        self.use_shared_memory = bool(use_shared_memory)
        self.share_factors = bool(share_factors)
        self._context = (
            mp.get_context(start_method) if start_method else _default_context()
        )
        #: merged per-process solve statistics of everything this extractor ran
        self.stats = SolveStats()
        #: gauge constants of the most recent floating-backplane block
        self.last_gauge_constants: np.ndarray | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._local: SubstrateSolver | None = None
        self._plane: FactorPlane | None = None
        #: factor-cache keys published to the plane (diagnostics / tests)
        self.published_factor_keys: list[tuple] = []
        #: per-``solve_many`` pool-rebuild budget before degrading to an
        #: inline serial solve on the parent's local solver
        self.max_pool_rebuilds = int(max_pool_rebuilds)
        #: times a broken pool was torn down and rebuilt mid-block
        self.pool_rebuilds = 0
        #: columns served inline because the pool could not be resurrected
        self.degraded_solves = 0

    # ---------------------------------------------------------------- plumbing
    def _worker_overrides(self) -> dict[str, Any]:
        # one process = one core: the stacked DCTs inside a worker must not
        # spawn a second level of threads (oversubscription)
        return {} if self.spec.kind == "dense" else {"fft_workers": 1}

    def _parent_factors(self) -> list[tuple[tuple, Any]]:
        """Every parent-held factor worth shipping, as ``(key, factor)`` pairs.

        Reads the local solver's factor without cache-counter traffic (the
        eigenfunction solver's ``direct_factor``, the FD engine's LU); falls
        back to the process-wide cache.  With
        ``prepare_direct`` / ``prepare_tiled`` the parent builds the factor
        here — once, for the whole fleet — before the pool starts.  Spilled
        tiled factors are skipped at publish time (they are scratch files,
        not shippable pages).
        """
        local = self._local_solver()
        held: list[tuple[tuple, Any]] = []
        key = getattr(local, "factor_cache_key", None)
        if key is not None:
            if self.prepare_direct:
                prepare = getattr(local, "prepare_direct", None)
                if prepare is not None:
                    prepare()
            factor = getattr(local, "direct_factor", None)
            if factor is None:
                engine = getattr(local, "_direct_engine", None)
                if engine is not None:
                    factor = engine._lu
            if factor is None and factor_cache().contains(key):
                factor = factor_cache().get(key)
            if factor is not None:
                held.append((key, factor))
        tiled_key = getattr(local, "tiled_factor_cache_key", None)
        if tiled_key is not None:
            if self.prepare_tiled:
                prepare = getattr(local, "prepare_tiled", None)
                if prepare is not None:
                    prepare()
            tiled = getattr(local, "_tiled_factor", None)
            if tiled is None and factor_cache().contains(tiled_key):
                tiled = factor_cache().get(tiled_key)
            if tiled is not None:
                held.append((tiled_key, tiled))
        return held

    def _export_factor_handles(self) -> tuple:
        """Publish the parent's factors to a shared plane; returns the handles."""
        if not self.share_factors or self.spec.kind == "dense":
            return ()
        if not self.spec.options.get("use_factor_cache", True):
            # workers built with a disabled factor cache never consult it,
            # so an attached payload could not reach them
            return ()
        held = self._parent_factors()
        if not held:
            return ()
        plane = FactorPlane()
        handles = []
        keys = []
        for key, factor in held:
            try:
                handles.append(plane.publish(key, factor))
            except (TypeError, OSError, ValueError):
                # unshippable factor kind (spilled tiled factor) or no shared
                # memory on this platform — workers fall back to their own
                # factorisation for this one
                continue
            keys.append(key)
        if not handles:
            plane.unlink()
            return ()
        self._plane = plane
        self.published_factor_keys = keys
        return tuple(handles)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            fork = self._context.get_start_method() == "fork"
            if fork and self.use_shared_memory:
                # forked workers inherit the parent's shared-memory resource
                # tracker; make sure it exists *before* the fork so every
                # worker shares it (segment registration then stays owned by
                # the parent, which unlinks it)
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.ensure_running()
                except Exception:
                    pass
            handles = self._export_factor_handles()
            # reprolint: owned-by(ParallelExtractor)
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=self._context,
                initializer=_init_worker,
                initargs=(
                    self.spec,
                    self._worker_overrides(),
                    self.prepare_direct,
                    not fork,
                    handles,
                    self.prepare_tiled,
                ),
            )
        return self._pool

    def _local_solver(self) -> SubstrateSolver:
        if self._local is None:
            self._local = self.spec.build()
        return self._local

    def warm_up(self) -> None:
        """Start the pool and run worker initialisation now (untimed set-up).

        Submits one barrier-rendezvous task per worker — each blocks its
        worker until all have arrived — so that every worker process has
        built (and, with ``prepare_direct``, factored) its solver before the
        first timed block arrives.

        A worker that dies during initialisation breaks both the pool and
        the barrier its siblings are waiting on; both surface here as a
        :class:`PoolWarmupError` (after the pool has been shut down) rather
        than a raw ``BrokenProcessPool`` / ``BrokenBarrierError`` — or, in
        the worst pre-fix case, a caller parked on a 600 s barrier timeout.
        """
        if self.n_workers <= 1:
            local = self._local_solver()
            if self.prepare_direct:
                prepare = getattr(local, "prepare_direct", None)
                if prepare is not None:
                    prepare()
            if self.prepare_tiled:
                prepare = getattr(local, "prepare_tiled", None)
                if prepare is not None:
                    prepare()
            return
        pool = self._ensure_pool()
        try:
            with mp.Manager() as manager:
                barrier = manager.Barrier(self.n_workers)
                futures = [
                    pool.submit(_rendezvous, barrier) for _ in range(self.n_workers)
                ]
                for fut in futures:
                    attached, rebuilt = fut.result()
                    self.stats.record_factor_attach(attached)
                    self.stats.record_factor_rebuild(rebuilt)
        except POOL_FAILURE_ERRORS as exc:
            # the pool is unusable (and would hang or fail every later
            # submit); tear it down before telling the caller why
            self.close()
            raise PoolWarmupError(
                f"worker pool failed during warm-up: {type(exc).__name__}: {exc}"
            ) from exc

    def close(self) -> None:
        """Shut the worker pool down and unlink the factor plane (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._plane is not None:
            # workers are gone; remove the published segments so nothing
            # leaks into /dev/shm past the extractor's lifetime
            self._plane.unlink()
            self._plane = None

    def __enter__(self) -> "ParallelExtractor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown guard
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ solves
    def solve_currents(self, voltages: np.ndarray) -> np.ndarray:
        v = np.asarray(voltages, dtype=float)
        if v.shape != (self.n_contacts,):
            raise ValueError("expected one voltage per contact")
        return self.solve_many(v[:, None])[:, 0]

    def solve_many(self, voltages: np.ndarray) -> np.ndarray:
        """Shard the block's columns across the worker pool and merge results.

        Columns are split into one contiguous shard per worker; each worker
        serves its shard through its own solver's ``solve_many`` (adaptive
        dispatch included) and the per-process statistics, gauge constants
        and result columns are merged back.  Column ``j`` of the result
        matches the serial solver's ``solve_many`` on column ``j`` to solver
        tolerance, and narrow blocks short-circuit to an inline solve.
        """
        v = np.asarray(voltages, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.n_contacts:
            raise ValueError("expected an (n_contacts, k) voltage block")
        k = v.shape[1]
        if k == 0:
            return np.empty_like(v)
        if self.n_workers <= 1 or k < max(self.min_parallel_columns, 2):
            return self._solve_inline(v)

        n_shards = min(self.n_workers, k)
        bounds = np.linspace(0, k, n_shards + 1, dtype=int)
        shards = [
            (int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)
            if hi > lo
        ]
        shm = None
        shm_name = None
        if self.use_shared_memory:
            try:
                from multiprocessing import shared_memory

                shm = shared_memory.SharedMemory(
                    create=True, size=max(v.shape[0] * k * 8, 1)
                )
                shm_name = shm.name
            except (OSError, ValueError):
                shm = None
                shm_name = None
        out = np.empty_like(v)
        gauges = np.full(k, np.nan)
        any_gauges = False
        try:
            pending = shards
            rebuilds_this_block = 0
            while pending:
                try:
                    pool = self._ensure_pool()
                    futures = [
                        (
                            pool.submit(
                                _solve_shard,
                                np.ascontiguousarray(v[:, lo:hi]),
                                lo,
                                shm_name,
                                v.shape,
                            ),
                            (lo, hi),
                        )
                        for lo, hi in pending
                    ]
                except POOL_FAILURE_ERRORS as exc:
                    self._note_pool_failure(exc)
                    futures = []
                failed: list[tuple[int, int]] = []
                failure: BaseException | None = None
                for fut, (lo, hi) in futures:
                    try:
                        start, width, data, stats, shard_gauges = fut.result()
                    except POOL_FAILURE_ERRORS as exc:
                        # a worker died: this future (and any sibling still
                        # in flight) reports the broken pool, not physics —
                        # remember the shard and re-solve it after a rebuild
                        failed.append((lo, hi))
                        failure = exc
                        continue
                    if data is not None:
                        out[:, start : start + width] = data
                    elif shm is not None:
                        block = np.ndarray(v.shape, dtype=np.float64, buffer=shm.buf)
                        out[:, start : start + width] = block[:, start : start + width]
                    self.stats.merge(stats)
                    if shard_gauges is not None:
                        gauges[start : start + width] = shard_gauges
                        any_gauges = True
                if not futures:
                    failed = list(pending)
                if not failed:
                    break
                pending = sorted(failed)
                rebuilds_this_block += 1
                if rebuilds_this_block > self.max_pool_rebuilds:
                    # the pool cannot be resurrected within budget: finish
                    # the block inline on the parent's serial solver rather
                    # than failing work that is still perfectly solvable
                    n_degraded = sum(hi - lo for lo, hi in pending)
                    warnings.warn(
                        f"worker pool broken {rebuilds_this_block - 1} times; "
                        f"degrading {n_degraded} remaining columns to an "
                        "inline serial solve",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    self.close()
                    for lo, hi in pending:
                        inline = self._solve_inline(np.ascontiguousarray(v[:, lo:hi]))
                        out[:, lo:hi] = inline
                        if self.last_gauge_constants is not None:
                            gauges[lo:hi] = self.last_gauge_constants
                            any_gauges = True
                    self.degraded_solves += n_degraded
                    break
                if failure is not None:
                    self._note_pool_failure(failure)
                self.pool_rebuilds += 1
                self._rebuild_pool()
        finally:
            if shm is not None:
                shm.close()
                shm.unlink()
        self.last_gauge_constants = gauges if any_gauges else None
        return out

    def _note_pool_failure(self, exc: BaseException) -> None:
        warnings.warn(
            f"worker pool failure during solve_many: {type(exc).__name__}: {exc}; "
            "tearing the pool down for rebuild",
            RuntimeWarning,
            stacklevel=3,
        )

    def _rebuild_pool(self) -> None:
        """Tear down the broken pool and let the next submit build a fresh one.

        ``close()`` also unlinks the shared factor plane, so the rebuild
        path re-publishes the parent's (still cached) factors through a new
        plane before the replacement workers initialise — the supervised
        restart pays attach cost, never a refactorisation.
        """
        self.close()

    def _solve_inline(self, v: np.ndarray) -> np.ndarray:
        solver = self._local_solver()
        out, delta = _solve_with_stats_delta(solver, v)
        self.stats.merge(delta)
        self.last_gauge_constants = getattr(solver, "last_gauge_constants", None)
        return out

    # ------------------------------------------------------------- convenience
    def extract_dense(self, **kwargs: Any) -> np.ndarray:
        """Parallel dense extraction (``extract_dense(self, ...)``)."""
        from .extraction import extract_dense

        return extract_dense(self, **kwargs)

    def extract_columns(self, columns: np.ndarray, **kwargs: Any) -> np.ndarray:
        """Parallel column extraction (``extract_columns(self, ...)``)."""
        from .extraction import extract_columns

        return extract_columns(self, columns, **kwargs)
