"""Eigenvalues of the layered-substrate current-to-potential operator.

Section 2.3.1: the operator ``A`` taking top-surface current density to
top-surface potential has the cosine eigenfunctions

    f_mn(x, y) = cos(m pi x / a) cos(n pi y / b)

with eigenvalues ``lambda_mn`` determined by the layer thicknesses and
conductivities.  The thesis derives a coefficient recursion (eqs. 2.34-2.36);
here the same quantity is computed through a numerically robust *surface
admittance* recursion that never forms growing exponentials:

Within one layer of conductivity ``sigma`` and thickness ``t`` the quantity
``Y = sigma * psi'(z) / psi(z)`` propagates from the layer bottom to the layer
top as

    Y_top = sigma*gamma * (tanh(gamma t) + Y_bot/(sigma*gamma))
                        / (1 + (Y_bot/(sigma*gamma)) * tanh(gamma t)),

``Y`` is continuous across layer interfaces (both ``psi`` and ``sigma psi'``
are continuous), and the eigenvalue is ``lambda = 1 / Y_surface``.  A grounded
backplane means ``Y = +inf`` at the bottom; a floating backplane means
``Y = 0``.  For the uniform mode (``gamma = 0``) the recursion degenerates to
resistances in series; with a floating backplane ``lambda_00`` is infinite
(you cannot push net DC current into a floating substrate), which callers
handle by excluding the uniform mode.

:func:`eigenvalue_table` runs this recursion over a whole array of ``gamma``
at once; :func:`mode_eigenvalue` is its scalar form, kept as the tests'
oracle for the table.  The thesis's coefficient recursion is also
implemented (:func:`eigenvalue_coefficient_recursion`) and used as a
cross-check in the tests for moderate ``gamma * d`` where it does not
overflow.
"""

from __future__ import annotations

import numpy as np

from ..profile import SubstrateProfile

__all__ = [
    "mode_eigenvalue",
    "eigenvalue_table",
    "eigenvalue_coefficient_recursion",
]


def mode_eigenvalue(gamma: float, profile: SubstrateProfile) -> float:
    """Eigenvalue ``lambda`` of the surface operator for spatial frequency ``gamma``.

    Parameters
    ----------
    gamma:
        ``sqrt((m pi / a)^2 + (n pi / b)^2)`` for mode (m, n).
    profile:
        The layered substrate.

    Returns
    -------
    ``lambda`` with units of (potential) / (surface current density);
    ``numpy.inf`` for the uniform mode of a floating-backplane substrate.
    """
    sigmas = profile.conductivities[::-1]  # bottom to top
    thicknesses = profile.thicknesses[::-1]

    if gamma == 0.0:
        if not profile.grounded_backplane:
            return np.inf
        # resistances in series per unit area
        return float(np.sum(thicknesses / sigmas))

    if profile.grounded_backplane:
        # Y_bot = inf: start with the closed form for the bottom layer and
        # continue upward from its top.
        sigma0, t0 = sigmas[0], thicknesses[0]
        tanh0 = np.tanh(gamma * t0)
        if tanh0 == 0.0:
            return 0.0
        y = sigma0 * gamma / tanh0
        start = 1
    else:
        y = 0.0
        start = 0

    for sigma, t in zip(sigmas[start:], thicknesses[start:], strict=True):
        sg = sigma * gamma
        tanh = np.tanh(gamma * t)
        y = sg * (tanh + y / sg) / (1.0 + (y / sg) * tanh)
    return float(1.0 / y)


def eigenvalue_table(
    n_modes_x: int, n_modes_y: int, profile: SubstrateProfile
) -> np.ndarray:
    """Table of ``lambda_mn`` for ``m < n_modes_x``, ``n < n_modes_y``.

    For a floating backplane the (0, 0) entry is set to 0 (the uniform mode is
    excluded from the operator; see :mod:`repro.substrate.bem.operator`).

    The admittance recursion of :func:`mode_eigenvalue` runs once per layer
    over the whole ``gamma`` array, in the same floating-point operations, so
    each entry equals the scalar's.  A 128x128 table takes ~1.5 ms (2-vCPU
    host; ~0.2 s as a loop of scalar calls), so every operator builds its
    own and no cache holds it.
    """
    a, b = profile.size_x, profile.size_y
    m = np.arange(n_modes_x)
    n = np.arange(n_modes_y)
    gamma = np.sqrt((m[:, None] * np.pi / a) ** 2 + (n[None, :] * np.pi / b) ** 2)
    sigmas = profile.conductivities[::-1]  # bottom to top
    thicknesses = profile.thicknesses[::-1]
    # the uniform mode (gamma = 0) divides by zero here and is set below
    with np.errstate(divide="ignore", invalid="ignore"):
        if profile.grounded_backplane:
            y = sigmas[0] * gamma / np.tanh(gamma * thicknesses[0])
            start = 1
        else:
            y = np.zeros_like(gamma)
            start = 0
        for sigma, t in zip(sigmas[start:], thicknesses[start:], strict=True):
            sg = sigma * gamma
            tanh = np.tanh(gamma * t)
            ratio = y / sg
            y = sg * (tanh + ratio) / (1.0 + ratio * tanh)
        table = 1.0 / y
    uniform = mode_eigenvalue(0.0, profile)
    table[gamma == 0.0] = 0.0 if np.isinf(uniform) else uniform
    return table


def eigenvalue_coefficient_recursion(
    gamma: float, profile: SubstrateProfile
) -> float:
    """Eigenvalue via the thesis's coefficient recursion (eqs. 2.34-2.35).

    The potential in layer ``k`` (counting from the bottom) is
    ``psi_k(z) = zeta_k exp(gamma (d + z)) + xi_k exp(-gamma (d + z))``.
    Starting from ``(zeta, xi) = (1, -1)`` for a grounded backplane or
    ``(1, 1)`` for a floating one, the interface conditions propagate the
    coefficients upward, and

        lambda = psi(0) / (sigma_top * psi'(0)).

    This form overflows for large ``gamma * d``; it exists for validation of
    :func:`mode_eigenvalue` on moderate arguments only.
    """
    if gamma == 0.0:
        return mode_eigenvalue(0.0, profile)
    d = profile.depth
    sigmas = profile.conductivities[::-1]  # bottom to top
    thicknesses = profile.thicknesses[::-1]
    # interface heights measured from the bottom
    heights = np.cumsum(thicknesses)[:-1]

    if profile.grounded_backplane:
        zeta, xi = 1.0, -1.0
    else:
        zeta, xi = 1.0, 1.0

    for k, h in enumerate(heights):
        sigma_below, sigma_above = sigmas[k], sigmas[k + 1]
        u = gamma * h
        ep, em = np.exp(u), np.exp(-u)
        # continuity of psi and of sigma * psi' at the interface
        psi = zeta * ep + xi * em
        dpsi = gamma * (zeta * ep - xi * em) * sigma_below / sigma_above
        # solve for the coefficients above the interface
        zeta = 0.5 * (psi + dpsi / gamma) * em
        xi = 0.5 * (psi - dpsi / gamma) * ep
        # normalise to avoid overflow while preserving the ratio
        scale = max(abs(zeta), abs(xi))
        if scale > 0:
            zeta /= scale
            xi /= scale

    u = gamma * d
    ep, em = np.exp(u), np.exp(-u)
    psi0 = zeta * ep + xi * em
    dpsi0 = gamma * (zeta * ep - xi * em)
    return float(psi0 / (sigmas[-1] * dpsi0))
