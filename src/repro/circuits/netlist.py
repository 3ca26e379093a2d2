"""Minimal resistive circuit netlist with substrate macromodels.

The motivation for sparsifying ``G`` (Section 1.1) is to include a substrate
model inside a circuit simulator without paying for a dense ``n x n`` block.
This module provides a small netlist representation — resistors, independent
sources and an ``n``-terminal substrate macromodel — that the MNA solver in
:mod:`repro.circuits.mna` can simulate either with a dense conductance block
or with a sparsified ``Q Gw Q'`` operator applied iteratively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.sparsified import SparsifiedConductance

__all__ = [
    "Resistor",
    "CurrentSource",
    "VoltageSource",
    "SubstrateMacromodel",
    "Circuit",
]

GROUND = "0"


@dataclass(frozen=True)
class Resistor:
    """Two-terminal resistor between ``node_a`` and ``node_b``."""

    node_a: str
    node_b: str
    resistance: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise ValueError("resistance must be positive")

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance


@dataclass(frozen=True)
class CurrentSource:
    """Independent current source pushing ``current`` from ``node_a`` into ``node_b``."""

    node_a: str
    node_b: str
    current: float
    name: str = ""


@dataclass(frozen=True)
class VoltageSource:
    """Independent voltage source: ``v(node_plus) - v(node_minus) = voltage``."""

    node_plus: str
    node_minus: str
    voltage: float
    name: str = ""


@dataclass
class SubstrateMacromodel:
    """An ``n``-terminal conductance macromodel attached to circuit nodes.

    Parameters
    ----------
    nodes:
        Circuit node names, one per substrate contact, in contact order.
    dense:
        Dense conductance matrix ``G`` (optional).
    sparsified:
        Sparse representation ``Q Gw Q'`` (optional).  At least one of
        ``dense`` / ``sparsified`` must be given; if both are present the MNA
        solver uses whichever the caller selects.
    """

    nodes: Sequence[str]
    dense: np.ndarray | None = None
    sparsified: SparsifiedConductance | None = None
    name: str = "substrate"

    def __post_init__(self) -> None:
        n = len(self.nodes)
        if self.dense is None and self.sparsified is None:
            raise ValueError("provide a dense G or a sparsified representation")
        if self.dense is not None and self.dense.shape != (n, n):
            raise ValueError("dense G shape does not match the number of nodes")
        if self.sparsified is not None and self.sparsified.n_contacts != n:
            raise ValueError("sparsified representation size does not match nodes")

    @property
    def n_terminals(self) -> int:
        return len(self.nodes)

    def apply(self, voltages: np.ndarray, use_sparsified: bool) -> np.ndarray:
        """Terminal currents for terminal voltages."""
        if use_sparsified:
            if self.sparsified is None:
                raise ValueError("no sparsified representation attached")
            return self.sparsified.apply(voltages)
        if self.dense is None:
            raise ValueError("no dense G attached")
        return self.dense @ voltages


@dataclass
class Circuit:
    """A flat netlist of resistive elements, sources and substrate macromodels."""

    resistors: list[Resistor] = field(default_factory=list)
    current_sources: list[CurrentSource] = field(default_factory=list)
    voltage_sources: list[VoltageSource] = field(default_factory=list)
    substrates: list[SubstrateMacromodel] = field(default_factory=list)

    # ------------------------------------------------------------- construction
    def add_resistor(self, node_a: str, node_b: str, resistance: float, name: str = "") -> Resistor:
        r = Resistor(node_a, node_b, resistance, name)
        self.resistors.append(r)
        return r

    def add_voltage_source(
        self, node_plus: str, node_minus: str, voltage: float, name: str = ""
    ) -> VoltageSource:
        s = VoltageSource(node_plus, node_minus, voltage, name)
        self.voltage_sources.append(s)
        return s

    def add_substrate(self, macromodel: SubstrateMacromodel) -> SubstrateMacromodel:
        self.substrates.append(macromodel)
        return self.substrates[-1]

    # ------------------------------------------------------------------- nodes
    def node_names(self) -> list[str]:
        """All non-ground node names in first-seen order."""
        seen: dict[str, None] = {}

        def visit(name: str) -> None:
            if name != GROUND and name not in seen:
                seen[name] = None

        for r in self.resistors:
            visit(r.node_a)
            visit(r.node_b)
        for s in self.current_sources:
            visit(s.node_a)
            visit(s.node_b)
        for s in self.voltage_sources:
            visit(s.node_plus)
            visit(s.node_minus)
        for sub in self.substrates:
            for node in sub.nodes:
                visit(node)
        return list(seen)
