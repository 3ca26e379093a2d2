"""Eigenfunction-based (surface-variable) substrate solver.

Given contact voltages, the solver finds the contact-panel currents ``q`` such
that the potential produced by ``q`` equals the prescribed voltage on every
contact panel (non-contact panels carry zero current), then sums panel
currents per contact.  This is the black-box solver of Section 2.3 used for
most of the paper's experiments.

For a grounded backplane the contact-panel block ``A_cc`` is symmetric
positive definite and a preconditioned conjugate-gradient iteration is used.
For a floating backplane the potential is only determined up to an additive
constant and net injected current must vanish; the solver then solves the
bordered (saddle-point) system

    [ A_cc  1 ] [q]   [v]
    [ 1'    0 ] [c] = [0]

with MINRES, which yields the gauge constant ``c`` alongside the currents.

Batched solves (:meth:`EigenfunctionSolver.solve_many`) are routed per block
by a :class:`~repro.substrate.dispatch.DispatchPolicy` between the stacked-RHS
Krylov engines and a factor-once/solve-all direct engine: dense Cholesky of
``A_cc`` for a grounded backplane, and a Schur-complement (bordered Cholesky)
factorisation of the saddle-point system for a floating one, so wide floating
blocks no longer pay one MINRES iteration history per column.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_factor, cho_solve, lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator, cg, minres

from ...geometry.contact import ContactLayout
from ...geometry.panels import PanelGrid
from ..dispatch import DispatchDecision, DispatchPolicy
from ..factor_cache import factor_cache, seal_factor_arrays
from ..profile import SubstrateProfile
from ..solver_base import SolveStats, SubstrateSolver, check_finite_voltages
from .operator import SurfaceOperator

#: factor-cache kind string of the dense contact-block factorisations
BEM_FACTOR_KIND = "bem_direct_factor"

__all__ = ["EigenfunctionSolver"]


def _minres_block(
    matmat,
    b: np.ndarray,
    diag: np.ndarray,
    rtol: float,
    maxiter: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Preconditioned MINRES carried simultaneously over the rows of ``b``.

    Standard Paige–Saunders recurrences with every scalar promoted to a
    per-RHS vector.  The iteration is **batch-major**: ``b`` is a ``(k, n)``
    block whose rows are independent right-hand sides, ``matmat`` applies the
    (symmetric, possibly indefinite) operator to such a block, and ``diag`` is
    a positive diagonal preconditioner given as a ``(1, n)`` row.  Keeping the
    batch axis first leaves each RHS's panel data contiguous through the
    stacked DCTs — the same layout the grounded CG path uses.  Rows are frozen
    once their preconditioned relative residual estimate drops below ``rtol``.

    Returns ``(x, iterations_per_rhs, still_active_mask)``.
    """
    n_rhs = b.shape[0]
    eps = np.finfo(float).eps
    x = np.zeros_like(b)
    r1 = b.copy()
    y = r1 / diag
    beta1 = np.sqrt(np.maximum(np.einsum("ij,ij->i", r1, y), 0.0))
    active = beta1 > 0.0
    iters = np.zeros(n_rhs, dtype=int)
    if not active.any():
        return x, iters, active
    safe_beta1 = np.where(active, beta1, 1.0)

    oldb = np.zeros(n_rhs)
    beta = beta1.copy()
    dbar = np.zeros(n_rhs)
    epsln = np.zeros(n_rhs)
    phibar = beta1.copy()
    cs = -np.ones(n_rhs)
    sn = np.zeros(n_rhs)
    w = np.zeros_like(b)
    w2 = np.zeros_like(b)
    r2 = r1.copy()

    for itn in range(1, maxiter + 1):
        safe_beta = np.where(beta > 0, beta, 1.0)
        v = y / safe_beta[:, None]
        y = matmat(v)
        if itn >= 2:
            y -= (beta / np.where(oldb > 0, oldb, 1.0))[:, None] * r1
        alfa = np.einsum("ij,ij->i", v, y)
        y -= (alfa / safe_beta)[:, None] * r2
        r1 = r2
        r2 = y
        y = r2 / diag
        oldb = beta
        beta = np.sqrt(np.maximum(np.einsum("ij,ij->i", r2, y), 0.0))

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = np.maximum(np.hypot(gbar, beta), eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps[:, None] * w1 - delta[:, None] * w2) / gamma[:, None]
        x[active] += phi[active, None] * w[active]
        iters[active] += 1
        active = active & (np.abs(phibar) / safe_beta1 > rtol)
        if not active.any():
            break
    return x, iters, active


class EigenfunctionSolver(SubstrateSolver):
    """Black-box substrate solver using the DCT eigendecomposition operator.

    Parameters
    ----------
    layout:
        Contact layout.
    profile:
        Layered substrate profile (lateral size must match the layout).
    panels_per_contact:
        Minimum number of panels across the smallest contact side.
    max_panels:
        Cap on panels per side.
    rtol:
        Relative residual tolerance of the iterative solve.
    use_fft:
        Forwarded to :class:`SurfaceOperator`.
    max_batch:
        Largest number of right-hand-side columns iterated at once by
        :meth:`solve_many`; wider blocks are split into chunks of this size to
        bound peak memory on **both** engines (the iterative path holds a few
        ``(max_batch, nx, ny)`` work arrays, the direct path a
        ``(ncp, max_batch)`` RHS/solution pair).
    max_direct_panels:
        Ceiling on the number of contact panels for which :meth:`solve_many`
        may build a dense factorisation of the contact-panel block (memory is
        ``O(ncp^2)``).  Shorthand for the same knob on the default
        :class:`~repro.substrate.dispatch.DispatchPolicy`; ignored when an
        explicit ``dispatch`` policy is given.  ``None`` (the default) lets
        the process-wide factor-cache budget set it at each decision: the
        largest panel count whose factor the cache would store.  Set to 0 to
        force the iterative path.
    dispatch:
        Adaptive :class:`~repro.substrate.dispatch.DispatchPolicy` routing
        each ``solve_many`` block between the direct and iterative engines.
        ``None`` builds a default policy from ``max_direct_panels``.
    fft_workers:
        Worker-thread count for the stacked ``scipy.fft`` transforms,
        resolved through
        :func:`~repro.substrate.dispatch.resolve_fft_workers` (default: all
        CPUs when the host has more than one).
    use_factor_cache:
        Keep the dense contact-block factorisation in the process-wide
        :mod:`~repro.substrate.factor_cache`, which then owns it: a second
        solver over the same ``(layout, profile, grid)`` pays ~zero factor
        cost, and the cache budget bounds the factor's memory.  Disable to
        force a private factorisation, held by this solver (benchmarking
        cold paths).
    """

    def __init__(
        self,
        layout: ContactLayout,
        profile: SubstrateProfile,
        panels_per_contact: int = 2,
        max_panels: int = 256,
        rtol: float = 1e-8,
        use_fft: bool = True,
        max_batch: int = 256,
        max_direct_panels: int | None = None,
        dispatch: DispatchPolicy | None = None,
        fft_workers: int | None = None,
        use_factor_cache: bool = True,
    ) -> None:
        self.layout = layout
        self.profile = profile
        self.grid = PanelGrid.for_layout(
            layout, panels_per_min_contact=panels_per_contact, max_panels=max_panels
        )
        self.operator = SurfaceOperator(
            self.grid, profile, use_fft=use_fft, fft_workers=fft_workers
        )
        self.rtol = rtol
        self.max_batch = int(max_batch)
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.stats = SolveStats()
        self.dispatch = (
            dispatch
            if dispatch is not None
            else DispatchPolicy(max_direct_panels=max_direct_panels)
        )
        #: routing decision of the most recent solve_many block (diagnostics)
        self.last_dispatch: DispatchDecision | None = None
        #: gauge constants ``c`` (one per column) of the most recent
        #: floating-backplane solve, on either engine
        self.last_gauge_constants: np.ndarray | None = None
        #: the direct path's dense factorisation, held here only when the
        #: factor cache will not hold it (see _ensure_direct_factor)
        self._private_factor: tuple | None = None
        self._direct_failed = False
        self.use_factor_cache = bool(use_factor_cache)
        #: process-wide factor-cache key of this solver's direct factorisation
        self._factor_cache_key = (
            BEM_FACTOR_KIND,
            layout.fingerprint,
            profile.cache_key,
            self.grid.nx,
            self.grid.ny,
        )
        self._incidence: sparse.csr_matrix | None = None
        self._jacobi = self.operator.contact_block_diagonal()
        if np.any(self._jacobi <= 0):
            # floating backplane has a zero uniform mode; the diagonal stays
            # positive in practice, but guard against degenerate grids.
            self._jacobi = np.maximum(self._jacobi, np.max(self._jacobi) * 1e-12 + 1e-300)

    @property
    def max_direct_panels(self) -> int:
        """Dense-factorisation panel ceiling (delegates to the policy)."""
        return self.dispatch.max_direct_panels

    @property
    def direct_factor(self) -> tuple | None:
        """The dense factor the next direct block would use, or None.

        One of ``("chol", (c, lower))`` for a grounded backplane,
        ``("schur", (c, lower), w, s)`` or ``("bordered", lu, piv)`` for a
        floating one; every array in it is finite and read-only.  Read
        without building and without touching the cache's counters or
        recency; None before the first build and after the cache dropped
        the factor.
        """
        if self._private_factor is not None:
            return self._private_factor
        if self.use_factor_cache:
            return factor_cache().peek(self._factor_cache_key)
        return None

    @property
    def factor_cache_key(self) -> tuple:
        """Process-wide factor-cache key of this solver's direct factor.

        Every solver over the same ``(layout, profile, grid)`` shares it, and
        the artifact store files the factor under its digest.
        """
        return self._factor_cache_key

    # ----------------------------------------------------------------- solves
    def solve_currents(self, voltages: np.ndarray) -> np.ndarray:
        voltages = np.asarray(voltages, dtype=float)
        if voltages.shape != (self.layout.n_contacts,):
            raise ValueError("expected one voltage per contact")
        check_finite_voltages(voltages)
        v_panel = self.grid.spread_contact_values(voltages)[
            self.grid.all_contact_panels
        ]
        if self.profile.grounded_backplane:
            q_panel = self._solve_grounded(v_panel)
        else:
            q_panel = self._solve_floating(v_panel)
        full = np.zeros(self.grid.n_panels)
        full[self.grid.all_contact_panels] = q_panel
        return self.grid.sum_panel_values(full)

    def _solve_grounded(self, v_panel: np.ndarray) -> np.ndarray:
        ncp = self.grid.n_contact_panels
        a_cc = LinearOperator(
            (ncp, ncp), matvec=self.operator.apply_contact_panels, dtype=float
        )
        m_inv = LinearOperator(
            (ncp, ncp), matvec=lambda r: r / self._jacobi, dtype=float
        )
        iterations = 0

        def cb(_xk: np.ndarray) -> None:
            nonlocal iterations
            iterations += 1

        x0 = v_panel / self._jacobi
        sol, info = cg(a_cc, v_panel, x0=x0, rtol=self.rtol, maxiter=2000, M=m_inv, callback=cb)
        if info > 0:
            raise RuntimeError(f"CG did not converge in {info} iterations")
        self.stats.record(iterations)
        return sol

    def _solve_floating(self, v_panel: np.ndarray) -> np.ndarray:
        ncp = self.grid.n_contact_panels
        ones = np.ones(ncp)
        scale = float(np.mean(self._jacobi))

        def matvec(x: np.ndarray) -> np.ndarray:
            q, c = x[:-1], x[-1]
            top = self.operator.apply_contact_panels(q) + c * scale * ones
            bottom = scale * float(ones @ q)
            return np.concatenate([top, [bottom]])

        k = LinearOperator((ncp + 1, ncp + 1), matvec=matvec, dtype=float)
        diag = np.concatenate([self._jacobi, [scale]])
        m_inv = LinearOperator(
            (ncp + 1, ncp + 1), matvec=lambda r: r / diag, dtype=float
        )
        rhs = np.concatenate([v_panel, [0.0]])
        iterations = 0

        def cb(_xk: np.ndarray) -> None:
            nonlocal iterations
            iterations += 1

        sol, info = minres(k, rhs, rtol=self.rtol, maxiter=4000, M=m_inv, callback=cb)
        if info > 0:
            raise RuntimeError("MINRES did not converge")
        self.stats.record(iterations)
        # the MINRES border unknown is scaled; the physical gauge constant
        # satisfies A_cc q + c 1 = v
        self.last_gauge_constants = np.array([scale * sol[-1]])
        return sol[:-1]

    # ---------------------------------------------------------- batched solves
    def solve_many(self, voltages: np.ndarray) -> np.ndarray:
        """Batched black-box solve with adaptive direct/iterative dispatch.

        The :class:`~repro.substrate.dispatch.DispatchPolicy` routes the whole
        block once — so a one-time factorisation is amortised over every
        column of the block — and the chosen engine then chunks internally at
        ``max_batch`` columns to bound peak memory.  Column ``j`` of the
        result matches ``solve_currents(voltages[:, j])`` to the solver
        tolerance on either engine.  A block holding NaN or inf raises
        ``ValueError`` here, before any engine sees it.
        """
        v = np.asarray(voltages, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.layout.n_contacts:
            raise ValueError("expected an (n_contacts, k) voltage block")
        check_finite_voltages(v)
        if v.shape[1] == 0:
            return np.empty_like(v)
        decision = self.dispatch.choose(
            n_panels=self.grid.n_contact_panels,
            n_rhs=v.shape[1],
            grid_points=self.grid.n_panels,
            grounded=self.profile.grounded_backplane,
            factor_cached=self._factor_available(),
            factor_failed=self._direct_failed,
        )
        self.last_dispatch = decision
        if decision.path == "direct":
            solved = self._solve_many_direct(v)
            if solved is not None:
                return solved
            warnings.warn(
                "dense contact-block factorisation failed (numerically non-SPD "
                "contact block); falling back to the iterative path",
                RuntimeWarning,
                stacklevel=2,
            )
            self.last_dispatch = DispatchDecision(
                "iterative", "direct factorisation failed"
            )
        out = np.empty_like(v)
        # accumulate per-column gauge constants across chunks (each floating
        # chunk solve overwrites last_gauge_constants with its own columns)
        gauges = None if self.profile.grounded_backplane else np.empty(v.shape[1])
        for start in range(0, v.shape[1], self.max_batch):
            chunk = slice(start, min(start + self.max_batch, v.shape[1]))
            out[:, chunk] = self._solve_many_chunk(v[:, chunk])
            if gauges is not None:
                gauges[chunk] = self.last_gauge_constants
        if gauges is not None:
            self.last_gauge_constants = gauges
        return out

    # -------------------------------------------------------------- direct path
    def _factor_available(self) -> bool:
        """A direct factor is held, or sits warm in the process-wide cache."""
        return self._private_factor is not None or (
            self.use_factor_cache and factor_cache().contains(self._factor_cache_key)
        )

    def prepare_direct(self) -> bool:
        """Build (or load from the factor cache) the direct factor now.

        Returns True when the factor exists afterwards, in the factor cache
        or held by this solver; False when the direct path is unavailable
        (panel ceiling, or a failed factorisation, which is also remembered
        so dispatch never retries it).  Used to warm engines before timed
        extraction.
        """
        if self._direct_failed:
            return False
        if not 0 < self.grid.n_contact_panels <= self.dispatch.max_direct_panels:
            return False
        try:
            self._ensure_direct_factor()
        except LinAlgError:
            self._direct_failed = True
            return False
        return True

    def _ensure_direct_factor(self) -> tuple:
        """Return the dense factor of the contact-panel system, building it on a miss.

        The process-wide :mod:`~repro.substrate.factor_cache` is the factor's
        only owner.  Each call looks it up there once, and the solver keeps
        a reference of its own only when the cache will not hold the factor:
        ``use_factor_cache`` is off, or the cache refused it as oversized
        (built here or loaded from its artifact store).  So clearing,
        shrinking or evicting the cache frees the factor, and the next call
        rebuilds it, counted like any build: one cache miss and one
        ``n_factor_rebuilds``.  Callers keep the returned reference for the
        rest of their block, so an eviction mid-block cannot break it.
        """
        if self._private_factor is not None:
            return self._private_factor
        cache = factor_cache() if self.use_factor_cache else None
        factor = None if cache is None else cache.get(self._factor_cache_key)
        if factor is None:
            factor = self._factor_contact_block()
            # a build, not a cache or artifact hit: only these are counted
            self.stats.record_factor_rebuild()
            if cache is not None:
                cache.put(self._factor_cache_key, factor)
        if cache is None or not cache.contains(self._factor_cache_key):
            self._private_factor = factor
        return factor

    def _factor_contact_block(self) -> tuple:
        """Gather ``A_cc`` and factor it in place, with no second copy.

        Grounded backplane: Cholesky of ``A_cc``.  Floating backplane: the
        bordered saddle-point system is factored through its Schur complement
        — Cholesky of ``A_cc`` (SPD whenever the contacts do not tile the
        whole surface, since the excluded uniform mode cannot be represented
        by a current pattern supported on a strict panel subset) plus the
        solved border column ``w = A_cc^{-1} 1`` and pivot ``s = 1' w``.  If
        that Cholesky fails the full bordered matrix is LU-factored instead.

        The kernel-table gather is exactly symmetric, so its transpose is the
        same matrix in Fortran order and LAPACK factors it where it lies (a
        C-ordered argument would be copied whole first).

        The new factor's arrays are checked for NaN/inf once here and sealed
        read-only (:func:`~repro.substrate.factor_cache.seal_factor_arrays`),
        so no factor reaches the cache or a solve unchecked and no block
        solve rescans it.
        """
        a_cc = self.operator.contact_block_matrix(max_batch=self.max_batch)
        if self.profile.grounded_backplane:
            chol = cho_factor(a_cc.T, lower=False, overwrite_a=True)
            seal_factor_arrays(chol[0])
            return ("chol", chol)
        ncp = a_cc.shape[0]
        ones = np.ones(ncp)
        try:
            chol = cho_factor(a_cc.T, lower=False, overwrite_a=True)
            seal_factor_arrays(chol[0])
            w = cho_solve(chol, ones, check_finite=False)
            s = float(ones @ w)
            if np.isfinite(s) and s > 0.0:
                seal_factor_arrays(w)
                return ("schur", chol, w, s)
        except LinAlgError:
            pass
        # contacts tiling the whole surface make A_cc singular (the gauge
        # direction); the bordered matrix itself is still invertible.  The
        # Cholesky overwrote A_cc, so drop it and gather the rows again,
        # straight into the bordered matrix
        a_cc = chol = None
        bordered = np.zeros((ncp + 1, ncp + 1), order="F")
        for start in range(0, ncp, self.max_batch):
            stop = min(start + self.max_batch, ncp)
            bordered[start:stop, :ncp] = self.operator.contact_block_rows(
                start, stop, max_batch=self.max_batch
            )
        bordered[:ncp, -1] = 1.0
        bordered[-1, :ncp] = 1.0
        lu, piv = lu_factor(bordered, overwrite_a=True)
        u_diag = np.abs(np.diag(lu))
        if u_diag.min() <= ncp * np.finfo(float).eps * u_diag.max():
            raise LinAlgError("bordered saddle-point matrix is singular")
        seal_factor_arrays(lu, piv)
        return ("bordered", lu, piv)

    def _ensure_incidence(self) -> np.ndarray:
        """Contact->panel owner gather plus the cached panel->contact sum.

        The direct path spreads contact voltages to panels through the
        returned ``owner`` index and gathers panel currents back through the
        cached sparse incidence product.
        """
        owner = self.grid.panel_to_contact[self.grid.all_contact_panels]
        if self._incidence is None:
            ncp = owner.size
            self._incidence = sparse.csr_matrix(
                (np.ones(ncp), (owner, np.arange(ncp))),
                shape=(self.layout.n_contacts, ncp),
            )
        return owner

    def _solve_many_direct(self, v: np.ndarray) -> np.ndarray | None:
        """Factor-once / solve-all path; returns None on factorisation failure.

        The RHS/solution pair is processed in ``max_batch``-column chunks so a
        very wide block never materialises the full ``(ncp, k)`` panel arrays
        at once — the same memory bound the iterative path observes.

        The triangular solves skip SciPy's finiteness scan
        (``check_finite=False``), so a block pays only for its own columns,
        not for a pass over the whole factor.  Both inputs were checked where
        they entered: the factor when it was built or loaded (and it is
        read-only since), the voltages at :meth:`solve_many` entry.
        """
        try:
            factor = self._ensure_direct_factor()
        except LinAlgError:
            # numerically non-SPD / singular contact block (degenerate grid):
            # the caller falls back to the iterative path with a warning.
            self._direct_failed = True
            return None
        owner = self._ensure_incidence()
        kind = factor[0]
        k_total = v.shape[1]
        grounded = self.profile.grounded_backplane
        out = np.empty_like(v)
        gauges = None if grounded else np.empty(k_total)
        for start in range(0, k_total, self.max_batch):
            chunk = slice(start, min(start + self.max_batch, k_total))
            v_panel = v[:, chunk][owner]
            if kind == "chol":
                q_panel = cho_solve(factor[1], v_panel, check_finite=False)
            elif kind == "schur":
                _, chol, w, s = factor
                q0 = cho_solve(chol, v_panel, check_finite=False)
                c = q0.sum(axis=0) / s
                q_panel = q0 - w[:, None] * c
                gauges[chunk] = c
            else:  # bordered LU
                _, lu, piv = factor
                rhs = np.vstack([v_panel, np.zeros((1, v_panel.shape[1]))])
                sol = lu_solve((lu, piv), rhs, check_finite=False)
                q_panel = sol[:-1]
                gauges[chunk] = sol[-1]
            out[:, chunk] = self._incidence @ q_panel
        if gauges is not None:
            self.last_gauge_constants = gauges
        self.stats.record_direct(k_total)
        return out

    # ----------------------------------------------------------- iterative path
    def _solve_many_chunk(self, v: np.ndarray) -> np.ndarray:
        if v.shape[1] == 0:
            return np.empty_like(v)
        v_panel = self.grid.spread_contact_values(v)[self.grid.all_contact_panels]
        if self.profile.grounded_backplane:
            q_panel, iters = self._solve_grounded_block(v_panel)
        else:
            q_panel, iters = self._solve_floating_block(v_panel)
        for it in iters:
            self.stats.record(int(it))
        full = np.zeros((self.grid.n_panels, v.shape[1]))
        full[self.grid.all_contact_panels] = q_panel
        return self.grid.sum_panel_values(full)

    def _solve_grounded_block(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Jacobi-preconditioned CG over all columns of ``b`` at once.

        Per-column step lengths keep every column on its own CG trajectory
        (this is vectorised CG, not block-Krylov subspace sharing), so each
        column converges to the same solution as the sequential solve —
        same Jacobi preconditioner, same ``x0``, but the operator is applied
        to the whole block per iteration.  The iteration is carried
        batch-major (``(k, ncp)`` arrays) so every column's panel data stays
        contiguous through the stacked DCTs.
        """
        bt = np.ascontiguousarray(b.T)
        jac = self._jacobi[None, :]
        n_rhs = bt.shape[0]
        apply_block = self.operator.apply_contact_panels_block
        x = bt / jac
        r = bt - apply_block(x)
        tol = self.rtol * np.linalg.norm(bt, axis=1)
        iters = np.zeros(n_rhs, dtype=int)
        active = np.linalg.norm(r, axis=1) > tol
        z = r / jac
        p = z.copy()
        rz = np.einsum("ij,ij->i", r, z)
        for _ in range(2000):
            if not active.any():
                break
            ap = apply_block(p)
            pap = np.einsum("ij,ij->i", p, ap)
            alpha = np.where(active & (pap > 0), rz / np.where(pap > 0, pap, 1.0), 0.0)
            x += alpha[:, None] * p
            r -= alpha[:, None] * ap
            iters[active] += 1
            active &= np.linalg.norm(r, axis=1) > tol
            z = r / jac
            rz_new = np.einsum("ij,ij->i", r, z)
            beta = np.where(rz > 0, rz_new / np.where(rz > 0, rz, 1.0), 0.0)
            p = z + beta[:, None] * p
            rz = rz_new
        if active.any():
            raise RuntimeError(
                f"batched CG did not converge for {int(active.sum())} column(s)"
            )
        return x.T, iters

    def _solve_floating_block(self, v_panel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch-major vectorised MINRES on the bordered (saddle-point) system.

        Same formulation and preconditioner as the sequential
        :meth:`_solve_floating`, with the Lanczos/Givens recurrences carried
        per RHS and the operator applied to the whole block at once through
        the batch-major ``apply_contact_panels_block`` fast path (one stacked
        DCT pipeline per iteration, like the grounded CG path).
        """
        n_rhs = v_panel.shape[1]
        scale = float(np.mean(self._jacobi))
        diag = np.concatenate([self._jacobi, [scale]])[None, :]
        apply_block = self.operator.apply_contact_panels_block

        def matmat(x: np.ndarray) -> np.ndarray:
            q, c = x[:, :-1], x[:, -1:]
            top = apply_block(q) + scale * c  # c broadcasts over the ones row
            bottom = scale * q.sum(axis=1, keepdims=True)
            return np.concatenate([top, bottom], axis=1)

        rhs = np.concatenate(
            [np.ascontiguousarray(v_panel.T), np.zeros((n_rhs, 1))], axis=1
        )
        x, iters, active = _minres_block(matmat, rhs, diag, self.rtol, maxiter=4000)
        if active.any():
            raise RuntimeError(
                f"batched MINRES did not converge for {int(active.sum())} column(s)"
            )
        self.last_gauge_constants = scale * x[:, -1]
        return x[:, :-1].T, iters

    # ------------------------------------------------------------ convenience
    def conductance_matrix(self) -> np.ndarray:
        """Extract the dense ``G`` (one solve per contact) — small layouts only."""
        from ..extraction import extract_dense

        return extract_dense(self)

    def mean_iterations_per_solve(self) -> float:
        """Average Krylov iterations per **iterative** black-box solve.

        Solves served by the cached dense factorisation run zero Krylov
        iterations and are excluded from this mean (they are reported
        separately via ``stats.n_direct_solves``); see
        :class:`~repro.substrate.solver_base.SolveStats`.
        """
        return self.stats.mean_iterations
