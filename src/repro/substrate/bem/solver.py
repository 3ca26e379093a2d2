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

This is the eigenfunction backend of the frame both physical solvers share
(``solver_base._DispatchingSolver``), which routes each
:meth:`~EigenfunctionSolver.solve_many` block
(:meth:`~repro.substrate.dispatch.DispatchPolicy.choose`), chunks it and
handles a failed factorisation.  The backend supplies two engines: one
stacked-RHS Krylov loop per method, which the one-vector
:meth:`~EigenfunctionSolver.solve_currents` runs on one column, and a
factor-once/solve-all direct engine: dense Cholesky of ``A_cc`` for a
grounded backplane, a Schur-complement (bordered Cholesky) factorisation of
the saddle-point system for a floating one.  Both spread contact voltages
onto panels and sum panel currents per contact through one owner index and
one sparse incidence (:func:`~repro.geometry.panels.contact_map`).

A right-hand side is a contact voltage spread onto panels and an answer is
summed back per contact, so the operator a warm block needs has rank
``n_contacts``, not ``ncp``.  The direct factor therefore has a second,
contact-space form, ``W = U^-T E`` (``A_cc = U'U``, ``E`` the 0/1
``ncp x n_contacts`` spread), with ``G = W'W``: a column costs two GEMMs,
``4 ncp n_contacts`` flops, against the Cholesky's two triangular sweeps,
``2 ncp^2``.  Building it costs ``ncp^2 n_contacts`` flops, as much as
``n_contacts / 2`` columns on the Cholesky, so the frame switches to it
once a solver has sent that many columns through the direct engine
(:meth:`~EigenfunctionSolver._contact_form`), and only when
``2 n_contacts < ncp``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, lu_factor, lu_solve, solve_triangular

from ...geometry.contact import ContactLayout
from ...geometry.panels import PanelGrid, contact_map
from ..dispatch import DispatchDecision, DispatchPolicy
from ..factor_cache import seal_factor_arrays
from ..profile import SubstrateProfile
from ..solver_base import _DispatchingSolver
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


class EigenfunctionSolver(_DispatchingSolver):
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
        CPUs the process may run on, when there is more than one).
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
        self.profile = profile
        self.grid = PanelGrid.for_layout(
            layout, panels_per_min_contact=panels_per_contact, max_panels=max_panels
        )
        self.operator = SurfaceOperator(
            self.grid, profile, use_fft=use_fft, fft_workers=fft_workers
        )
        self.rtol = rtol
        if dispatch is None:
            dispatch = DispatchPolicy(max_direct_panels=max_direct_panels)
        super().__init__(
            layout,
            max_batch,
            dispatch,
            use_factor_cache,
            (BEM_FACTOR_KIND, layout.fingerprint, profile.cache_key, self.grid.nx, self.grid.ny),
        )
        #: gauge constants ``c`` (one per column) of the most recent
        #: floating-backplane solve, on either engine
        self.last_gauge_constants: np.ndarray | None = None
        # the one contact<->panel map of both engines, in all_contact_panels order
        _, self._owner, self._incidence = contact_map(
            self.grid.panel_to_contact, layout.n_contacts
        )
        self._jacobi = self.operator.contact_block_diagonal()
        if np.any(self._jacobi <= 0):
            # floating backplane has a zero uniform mode; the diagonal stays
            # positive in practice, but guard against degenerate grids.
            self._jacobi = np.maximum(self._jacobi, np.max(self._jacobi) * 1e-12 + 1e-300)

    @property
    def max_direct_panels(self) -> int:
        """Dense-factorisation panel ceiling (delegates to the policy)."""
        return self.dispatch.max_direct_panels

    # -------------------------------------------------------------- dispatch
    def _direct_limits(self) -> tuple[int, int]:
        return self.grid.n_contact_panels, self.dispatch.max_direct_panels

    def _choose(self, n_rhs: int, **state: bool) -> DispatchDecision:
        return self.dispatch.choose(
            n_panels=self.grid.n_contact_panels,
            n_rhs=n_rhs,
            grid_points=self.grid.n_panels,
            grounded=self.profile.grounded_backplane,
            **state,
        )

    # -------------------------------------------------------------- direct path
    def _build_direct_factor(self) -> tuple:
        """Gather ``A_cc`` and factor it in place, with no second copy.

        Grounded backplane: ``("chol", (c, lower))``, the Cholesky of
        ``A_cc``.  Floating backplane: the bordered saddle-point system is
        factored through its Schur complement, ``("schur", (c, lower), w, s)``
        — Cholesky of ``A_cc`` (SPD whenever the contacts do not tile the
        whole surface, since the excluded uniform mode cannot be represented
        by a current pattern supported on a strict panel subset) plus the
        solved border column ``w = A_cc^{-1} 1`` and pivot ``s = 1' w``.  If
        that Cholesky fails the full bordered matrix is LU-factored instead,
        ``("bordered", lu, piv)``.  The first two have a contact-space form
        (:meth:`_contact_form`), which the frame swaps in once the factor
        has served enough columns; the bordered LU has none.

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

    def _contact_form(self, factor: tuple) -> tuple:
        """``("contact", W, y, s)``: a Cholesky-based factor in contact space.

        ``W = U^-T E`` for ``A_cc = U'U`` (``L^-1 E`` for a lower factor),
        where ``E`` is the 0/1 ``(ncp, n_contacts)`` spread ``v -> v[owner]``,
        so ``G = E' A_cc^-1 E = W'W``.  On a floating backplane ``y = W'z``
        (``z = U^-T 1``) is ``E' A_cc^-1 1``, the contact sums of the Schur
        factor's border column, and ``s = z'z = 1' A_cc^-1 1`` is its pivot,
        so both are read off that factor; on a grounded one they are None.
        One triangular solve with ``n_contacts`` right-hand sides builds it.
        Returns ``factor`` itself when it has no such form (the bordered LU,
        or a form already promoted) or when a column on ``W`` would not be
        cheaper: ``4 ncp n_contacts`` flops against ``2 ncp^2`` needs
        ``2 n_contacts < ncp``.
        """
        ncp, n_contacts = self.grid.n_contact_panels, self.n_contacts
        if factor[0] not in ("chol", "schur") or 2 * n_contacts >= ncp:
            return factor
        c, lower = factor[1]
        spread = np.zeros((ncp, n_contacts), order="F")
        spread[np.arange(ncp), self._owner] = 1.0
        # solves U'x = b for an upper factor, L x = b for a lower one
        w = solve_triangular(
            c, spread, trans=0 if lower else 1, lower=lower, overwrite_b=True, check_finite=False
        )
        seal_factor_arrays(w)
        if factor[0] == "chol":
            return ("contact", w, None, None)
        _, _, border, s = factor
        y = self._incidence @ border
        seal_factor_arrays(y)
        return ("contact", w, y, s)

    def _solve_direct_chunk(
        self, v: np.ndarray, factor: tuple
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Currents (and floating gauges) of a chunk by the direct factor.

        On the contact form a chunk is ``W'(W v)``, two GEMMs with no
        panel-space vector; a floating chunk subtracts ``y (y'v) / s`` and
        returns the gauges ``(y'v) / s``.  On the Cholesky-based forms it is
        two triangular solves over the panel-space spread ``v[owner]``,
        summed back per contact.  The triangular solves skip SciPy's
        finiteness scan (``check_finite=False``), so a chunk pays only for
        its own columns, not for a pass over the whole factor.  Both inputs
        were checked where they entered: the factor when it was built,
        loaded or promoted (and it is read-only since), the voltages at
        :meth:`solve_many` entry.
        """
        if factor[0] == "contact":
            _, w, y, s = factor
            currents = w.T @ (w @ v)
            if y is None:
                return currents, None
            gauges = (y @ v) / s
            return currents - y[:, None] * gauges, gauges
        v_panel = v[self._owner]
        gauges = None
        if factor[0] == "chol":
            q_panel = cho_solve(factor[1], v_panel, check_finite=False)
        elif factor[0] == "schur":
            _, chol, w, s = factor
            q0 = cho_solve(chol, v_panel, check_finite=False)
            gauges = q0.sum(axis=0) / s
            q_panel = q0 - w[:, None] * gauges
        else:  # bordered LU
            _, lu, piv = factor
            rhs = np.vstack([v_panel, np.zeros((1, v_panel.shape[1]))])
            sol = lu_solve((lu, piv), rhs, check_finite=False)
            q_panel, gauges = sol[:-1], sol[-1]
        return self._incidence @ q_panel, gauges

    # ----------------------------------------------------------- iterative path
    def _solve_iterative_chunk(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Currents (and floating gauges) of a chunk by the Krylov engine."""
        b = v.T[:, self._owner]  # batch-major (k, ncp) contact-panel voltages
        gauges = None
        if self.profile.grounded_backplane:
            q, iters = self._solve_grounded_block(b)
        else:
            q, iters, gauges = self._solve_floating_block(b)
        for it in iters:
            self.stats.record(int(it))
        # one row at a time: a sparse product with the whole q.T would first
        # copy the batch-major block to C order, most of the sum's cost
        return np.stack([self._incidence @ row for row in q], axis=1), gauges

    def _solve_grounded_block(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Jacobi-preconditioned CG over the rows of a ``(k, ncp)`` block.

        Per-row step lengths keep every right-hand side on its own CG
        trajectory (vectorised CG, not block-Krylov subspace sharing), so a
        row converges as it would alone, from ``x0 = D^{-1} b``; the operator
        is applied to the whole block per iteration.  The iteration is
        carried batch-major so every row's panel data stays contiguous
        through the stacked DCTs, and it stops as soon as every row meets
        ``rtol``, before preconditioning a finished residual.
        """
        jac = self._jacobi[None, :]
        apply_block = self.operator.apply_contact_panels_block
        x = b / jac
        r = b - apply_block(x)
        tol = self.rtol * np.linalg.norm(b, axis=1)
        iters = np.zeros(b.shape[0], dtype=int)
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
            if not active.any():
                break
            z = r / jac
            rz_new = np.einsum("ij,ij->i", r, z)
            beta = np.where(rz > 0, rz_new / np.where(rz > 0, rz, 1.0), 0.0)
            p *= beta[:, None]
            p += z
            rz = rz_new
        if active.any():
            raise RuntimeError(
                f"batched CG did not converge for {int(active.sum())} column(s)"
            )
        return x, iters

    def _solve_floating_block(
        self, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Jacobi-preconditioned MINRES on the bordered system, per row of ``b``.

        ``b`` holds ``(k, ncp)`` batch-major contact-panel voltages.  The
        Lanczos/Givens recurrences are carried per row and the operator is
        applied to the whole block at once (one stacked DCT pipeline per
        iteration, like the grounded CG path).  The border unknown is scaled
        by the mean Jacobi entry.  Returns the panel currents, the iteration
        counts and the physical gauge constants ``c`` of ``A_cc q + c 1 = v``.
        """
        scale = float(np.mean(self._jacobi))
        diag = np.concatenate([self._jacobi, [scale]])[None, :]
        apply_block = self.operator.apply_contact_panels_block

        def matmat(x: np.ndarray) -> np.ndarray:
            q, c = x[:, :-1], x[:, -1:]
            top = apply_block(q) + scale * c  # c broadcasts over the ones row
            bottom = scale * q.sum(axis=1, keepdims=True)
            return np.concatenate([top, bottom], axis=1)

        rhs = np.concatenate([b, np.zeros((b.shape[0], 1))], axis=1)
        x, iters, active = _minres_block(matmat, rhs, diag, self.rtol, maxiter=4000)
        if active.any():
            raise RuntimeError(
                f"batched MINRES did not converge for {int(active.sum())} column(s)"
            )
        return x[:, :-1], iters, scale * x[:, -1]
