"""Tests for the MNA circuit solver and the substrate macromodel stamping."""

import numpy as np
import pytest
from scipy import sparse

from repro.circuits import (
    Circuit,
    CurrentSource,
    MNASolver,
    Resistor,
    SubstrateMacromodel,
)
from repro.core.sparsified import SparsifiedConductance


class TestNetlistValidation:
    def test_resistor_validation(self):
        with pytest.raises(ValueError):
            Resistor("a", "b", 0.0)

    def test_macromodel_needs_a_model(self):
        with pytest.raises(ValueError):
            SubstrateMacromodel(["a", "b"])

    def test_macromodel_shape_check(self):
        with pytest.raises(ValueError):
            SubstrateMacromodel(["a", "b"], dense=np.eye(3))

    def test_node_names_order_and_ground_exclusion(self):
        ckt = Circuit()
        ckt.add_resistor("a", "b", 1.0)
        ckt.add_voltage_source("c", "0", 1.0)
        ckt.current_sources.append(CurrentSource("0", "a", 1.0))
        assert ckt.node_names() == ["a", "b", "c"]


class TestBasicCircuits:
    def test_voltage_divider(self):
        ckt = Circuit()
        ckt.add_voltage_source("in", "0", 10.0, name="V1")
        ckt.add_resistor("in", "mid", 1000.0)
        ckt.add_resistor("mid", "0", 3000.0)
        sol = MNASolver(ckt).solve_dense()
        assert sol.voltage("mid") == pytest.approx(7.5)
        assert sol.voltage("in") == pytest.approx(10.0)
        assert sol.source_currents["V1"] == pytest.approx(-10.0 / 4000.0)

    def test_current_source_into_resistor(self):
        ckt = Circuit()
        ckt.current_sources.append(CurrentSource("0", "a", 2e-3))
        ckt.add_resistor("a", "0", 500.0)
        sol = MNASolver(ckt).solve_dense()
        assert sol.voltage("a") == pytest.approx(1.0)

    def test_voltage_between(self):
        ckt = Circuit()
        ckt.add_voltage_source("a", "0", 5.0)
        ckt.add_resistor("a", "b", 100.0)
        ckt.add_resistor("b", "0", 100.0)
        sol = MNASolver(ckt).solve_dense()
        assert sol.voltage("a") - sol.voltage("b") == pytest.approx(2.5)


class TestSubstrateMacromodel:
    def _substrate_g(self):
        # simple 3-terminal conductance: strongly diagonally dominant
        return np.array(
            [[5.0, -1.0, -0.5], [-1.0, 4.0, -0.8], [-0.5, -0.8, 6.0]]
        ) * 1e-3

    def _circuit(self, macro):
        ckt = Circuit()
        # digital driver injecting noise into contact d, analog sense node a
        ckt.add_voltage_source("vdd", "0", 1.0, name="Vdd")
        ckt.add_resistor("vdd", "dig", 50.0)
        ckt.add_resistor("ana", "0", 2000.0)
        ckt.add_resistor("guard", "0", 10.0)
        ckt.add_substrate(macro)
        return ckt

    def test_dense_stamp_produces_coupling(self):
        g = self._substrate_g()
        macro = SubstrateMacromodel(["dig", "ana", "guard"], dense=g)
        sol = MNASolver(self._circuit(macro)).solve_dense()
        # noise couples from the digital contact into the analog node
        assert sol.voltage("ana") > 0
        assert sol.voltage("ana") < sol.voltage("dig")

    def test_sparsified_iterative_matches_dense(self):
        g = self._substrate_g()
        rep = SparsifiedConductance(sparse.eye(3).tocsr(), sparse.csr_matrix(g))
        macro_dense = SubstrateMacromodel(["dig", "ana", "guard"], dense=g)
        macro_sparse = SubstrateMacromodel(["dig", "ana", "guard"], sparsified=rep)
        sol_dense = MNASolver(self._circuit(macro_dense)).solve_dense()
        sol_sparse = MNASolver(self._circuit(macro_sparse)).solve_sparsified()
        for node in ("dig", "ana", "guard"):
            assert sol_sparse.voltage(node) == pytest.approx(sol_dense.voltage(node), rel=1e-6)
        assert sol_sparse.iterations > 0

    def test_grounded_substrate_terminal(self):
        g = self._substrate_g()
        macro = SubstrateMacromodel(["dig", "ana", "0"], dense=g)
        ckt = Circuit()
        ckt.add_voltage_source("dig", "0", 1.0)
        ckt.add_resistor("ana", "0", 1e4)
        ckt.add_substrate(macro)
        sol = MNASolver(ckt).solve_dense()
        assert 0 < sol.voltage("ana") < 1.0

    def test_apply_selects_model(self):
        g = self._substrate_g()
        rep = SparsifiedConductance(sparse.eye(3).tocsr(), sparse.csr_matrix(g))
        macro = SubstrateMacromodel(["a", "b", "c"], dense=g, sparsified=rep)
        v = np.array([1.0, 0.5, -0.25])
        assert np.allclose(macro.apply(v, use_sparsified=True), macro.apply(v, use_sparsified=False))
