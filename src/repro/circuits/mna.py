"""DC modified nodal analysis (MNA) with substrate macromodels.

Stamps resistors, sources and substrate conductance blocks into the MNA
system and solves for node voltages.  Two substrate-stamping modes are
supported:

* ``dense`` — the full ``n x n`` conductance block is stamped (the costly
  approach the paper wants to avoid);
* ``sparsified`` — the substrate contribution is applied through the
  ``Q Gw Q'`` representation inside an iterative (GMRES) solve, so the system
  matrix never holds the dense block, mirroring the intended use discussed in
  Sections 1.1 and 5.2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .netlist import GROUND, Circuit

__all__ = ["DCSolution", "MNASolver"]


@dataclass
class DCSolution:
    """DC operating point: node voltages and voltage-source currents."""

    node_voltages: dict[str, float]
    source_currents: dict[str, float]
    iterations: int = 0

    def voltage(self, node: str) -> float:
        if node == GROUND:
            return 0.0
        return self.node_voltages[node]


class MNASolver:
    """Assemble and solve the DC MNA system of a :class:`Circuit`."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.nodes = circuit.node_names()
        self.node_index = {name: k for k, name in enumerate(self.nodes)}
        self.n_nodes = len(self.nodes)
        self.n_vsources = len(circuit.voltage_sources)
        self.size = self.n_nodes + self.n_vsources

    # ------------------------------------------------------------------ stamps
    def _index(self, node: str) -> int | None:
        if node == GROUND:
            return None
        return self.node_index[node]

    def _base_system(self) -> tuple[sparse.lil_matrix, np.ndarray]:
        a = sparse.lil_matrix((self.size, self.size))
        b = np.zeros(self.size)
        for r in self.circuit.resistors:
            g = r.conductance
            ia, ib = self._index(r.node_a), self._index(r.node_b)
            if ia is not None:
                a[ia, ia] += g
            if ib is not None:
                a[ib, ib] += g
            if ia is not None and ib is not None:
                a[ia, ib] -= g
                a[ib, ia] -= g
        for s in self.circuit.current_sources:
            ia, ib = self._index(s.node_a), self._index(s.node_b)
            if ia is not None:
                b[ia] -= s.current
            if ib is not None:
                b[ib] += s.current
        for k, s in enumerate(self.circuit.voltage_sources):
            row = self.n_nodes + k
            ip, im = self._index(s.node_plus), self._index(s.node_minus)
            if ip is not None:
                a[ip, row] += 1.0
                a[row, ip] += 1.0
            if im is not None:
                a[im, row] -= 1.0
                a[row, im] -= 1.0
            b[row] = s.voltage
        return a, b

    def _substrate_incidence(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per macromodel: (terminal indices into the MNA vector, mask of grounded terminals)."""
        out = []
        for sub in self.circuit.substrates:
            idx = np.array(
                [self.node_index.get(node, -1) if node != GROUND else -1 for node in sub.nodes],
                dtype=int,
            )
            out.append((idx, idx < 0))
        return out

    # ------------------------------------------------------------------ solves
    def solve_dense(self) -> DCSolution:
        """Direct solve with the substrate blocks stamped densely."""
        a, b = self._base_system()
        a = a.toarray()
        for sub, (idx, grounded) in zip(
            self.circuit.substrates, self._substrate_incidence(), strict=True
        ):
            if sub.dense is None:
                g_block = sub.sparsified.to_dense()
            else:
                g_block = sub.dense
            live = np.flatnonzero(~grounded)
            rows = idx[live]
            # several terminals may share one circuit node (e.g. a digital
            # cluster tied together), so accumulate duplicates explicitly
            np.add.at(a, (rows[:, None], rows[None, :]), g_block[np.ix_(live, live)])
        x = np.linalg.solve(a, b)
        return self._package(x, iterations=0)

    def solve_sparsified(self, rtol: float = 1e-10) -> DCSolution:
        """Iterative solve applying the substrate blocks through ``Q Gw Q'``."""
        a, b = self._base_system()
        a_csr = a.tocsr()
        incidence = self._substrate_incidence()

        def matvec(x: np.ndarray) -> np.ndarray:
            y = a_csr @ x
            for sub, (idx, grounded) in zip(self.circuit.substrates, incidence, strict=True):
                v = np.zeros(sub.n_terminals)
                live = np.flatnonzero(~grounded)
                v[live] = x[idx[live]]
                i = sub.apply(v, use_sparsified=sub.sparsified is not None)
                np.add.at(y, idx[live], i[live])
            return y

        op = LinearOperator((self.size, self.size), matvec=matvec, dtype=float)
        # preconditioner: the circuit-only part plus substrate diagonals
        prec_matrix = a.tolil(copy=True)
        for sub, (idx, grounded) in zip(self.circuit.substrates, incidence, strict=True):
            if sub.sparsified is not None:
                diag = sub.sparsified.matmat(np.eye(sub.n_terminals, 1)).ravel()
                approx_diag = np.full(sub.n_terminals, max(abs(diag[0]), 1e-12))
            else:
                approx_diag = np.abs(np.diag(sub.dense))
            live = np.flatnonzero(~grounded)
            for t in live:
                prec_matrix[idx[t], idx[t]] += approx_diag[t]
        lu = splu(prec_matrix.tocsc())
        m = LinearOperator((self.size, self.size), matvec=lu.solve, dtype=float)

        iterations = 0

        def cb(_x: np.ndarray) -> None:
            nonlocal iterations
            iterations += 1

        x, info = gmres(op, b, rtol=rtol, atol=0.0, maxiter=500, M=m, callback=cb,
                        callback_type="pr_norm")
        if info > 0:
            raise RuntimeError("GMRES did not converge in the MNA solve")
        return self._package(x, iterations=iterations)

    # ------------------------------------------------------------------ output
    def _package(self, x: np.ndarray, iterations: int) -> DCSolution:
        node_voltages = {name: float(x[k]) for name, k in self.node_index.items()}
        source_currents = {
            (s.name or f"V{k}"): float(x[self.n_nodes + k])
            for k, s in enumerate(self.circuit.voltage_sources)
        }
        return DCSolution(node_voltages, source_currents, iterations)
