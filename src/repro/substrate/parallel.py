"""Plain-data recipe for a substrate solver: :class:`SolverSpec`.

A spec names the solver kind, the contact layout, the substrate profile and
the solver's constructor options.  The extraction service keys its engines,
results and factors by the spec's :attr:`~SolverSpec.fingerprint`, carries
specs over the ``/v1`` wire format and journal, and builds each warm engine
once with :meth:`SolverSpec.build`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..geometry.contact import ContactLayout
from .profile import SubstrateProfile
from .solver_base import SubstrateSolver

__all__ = ["SolverSpec"]

#: solver kinds a spec can describe
SPEC_KINDS = ("bem", "fd", "dense")


@dataclass(frozen=True)
class SolverSpec:
    """Plain-data recipe for building a substrate solver.

    Parameters
    ----------
    kind:
        ``"bem"`` (:class:`~repro.substrate.bem.solver.EigenfunctionSolver`),
        ``"fd"`` (:class:`~repro.substrate.fd.solver.FiniteDifferenceSolver`)
        or ``"dense"`` (:class:`~repro.substrate.solver_base.DenseMatrixSolver`
        around ``options["matrix"]``).
    layout:
        The contact layout.
    profile:
        The substrate profile (``None`` for ``"dense"``).
    options:
        Keyword arguments forwarded to the solver constructor.  Keep these to
        plain values, which the fingerprint and the ``/v1`` wire format
        encode; live objects (dispatch policies, operators) are built by the
        constructor.
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

        ``overrides`` take precedence over the stored ``options`` (e.g. a
        tighter ``rtol`` for a reference solve of the same substrate); they
        are ignored for the ``"dense"`` kind, which has no tuning knobs.
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
