"""Differential oracle: every in-process path returns the same ``G`` columns
and charges the same black-box solves.

The paper's figure of merit is the number of black-box solves, so no
execution path may change either the answer or the count.  Hypothesis draws
a small substrate (4-16 contacts, grounded or floating backplane), a column
subset and a few ``(row, column)`` pairs.  Each path's answer is checked
against its backend's forced-direct ``extract_columns`` at 1e-10 of
max|G|.  The specs solve at ``rtol=1e-12``, so the iterative path sits well
inside that bound.  BEM and FD discretise the substrate differently, so
they are never compared with each other.

Paths, per backend:

* the spec's solver forced iterative and forced direct;
* a :class:`Scheduler`: a store miss, a store hit, and a retry after one
  injected ``factor.build`` fault; plus its warm engine's ``solve_currents``;
* ``/v1/stream``, ``/v1/jobs`` and ``/v1/pairs`` on one
  :class:`AsyncExtractionServer`;
* a :class:`ClusterLeader` fronting two in-process :class:`ClusterWorker`
  hosts.

Attribution identities: a :class:`CountingSolver` counts one solve per
column it was given; a scheduler's ``attributed_solves`` equals the union of
columns it had not solved before; a repeat costs no solve; a retried batch
is charged once; the cluster workers' ``attributed_solves`` sum to the
distinct columns the cluster served, and their ``engines.built`` to the
fingerprints it saw.

The server and the cluster live for the whole module (function-scoped
fixtures trip Hypothesis's health check), so their solve ledgers span
examples.  Every example is derandomized, so a CI failure replays.
"""

from __future__ import annotations

import multiprocessing
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.cluster import ClusterLeader, ClusterWorker
from repro.geometry.layouts import regular_grid
from repro.service import (
    AsyncExtractionServer,
    JobRequest,
    JobState,
    RetryPolicy,
    Scheduler,
    ServiceClient,
)
from repro.substrate.dispatch import DispatchPolicy
from repro.substrate.extraction import extract_columns
from repro.substrate.factor_cache import factor_cache
from repro.substrate.parallel import SolverSpec
from repro.substrate.profile import SubstrateProfile
from repro.substrate.solver_base import CountingSolver

#: agreement bound, relative to max|G|
AGREEMENT = 1e-10
#: solver tolerance of every spec: iterative answers stay far inside AGREEMENT
SPEC_RTOL = 1e-12
SIZE = 64.0
#: instant retries keep the retry path cheap
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.0, cap_s=0.0, jitter=0.0)


@dataclass(frozen=True)
class Case:
    n_side: int
    fill: float
    grounded: bool
    columns: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]


@st.composite
def cases(draw) -> Case:
    n_side = draw(st.integers(2, 4))
    n = n_side * n_side
    index = st.integers(0, n - 1)
    return Case(
        n_side=n_side,
        fill=draw(st.sampled_from((0.4, 0.6))),
        grounded=draw(st.booleans()),
        columns=tuple(draw(st.lists(index, min_size=1, max_size=n, unique=True))),
        pairs=tuple(draw(st.lists(st.tuples(index, index), min_size=1, max_size=3))),
    )


def _spec(backend: str, case: Case) -> SolverSpec:
    layout = regular_grid(n_side=case.n_side, size=SIZE, fill=case.fill)
    profile = SubstrateProfile.two_layer_example(size=SIZE, grounded_backplane=case.grounded)
    if backend == "bem":
        return SolverSpec.bem(layout, profile, max_panels=32, rtol=SPEC_RTOL, fft_workers=1)
    return SolverSpec.fd(
        layout, profile, nx=12, ny=12, planes_per_layer=2, rtol=SPEC_RTOL, fft_workers=1
    )


def _agree(got: np.ndarray, want: np.ndarray, scale: float) -> None:
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= AGREEMENT * scale


# ------------------------------------------------------------------ fixtures
@pytest.fixture(scope="module", autouse=True)
def _cold_factor_cache_without_artifacts():
    """The factor cache is process-wide: start cold, wire no artifact store."""
    factor_cache().clear()
    factor_cache().tier = None
    yield
    factor_cache().clear()
    factor_cache().tier = None


@pytest.fixture(scope="module")
def server():
    """One HTTP front end plus its ledger: fingerprint -> columns solved."""
    with AsyncExtractionServer() as srv:
        yield srv, defaultdict(set)


@pytest.fixture(scope="module")
def cluster():
    """A leader, two worker hosts and the cluster's ledger of solved columns.

    ``max_solvers`` holds every substrate the examples draw, so no engine is
    evicted and rebuilt: one build per fingerprint, cluster-wide.
    """
    with ClusterLeader() as leader:
        with (
            ClusterWorker(leader.url, heartbeat_s=0.2, max_solvers=64) as w1,
            ClusterWorker(leader.url, heartbeat_s=0.2, max_solvers=64) as w2,
        ):
            yield leader, (w1, w2), defaultdict(set)


# -------------------------------------------------------------------- oracle
@pytest.mark.parametrize("backend", ["bem", "fd"])
@settings(max_examples=15, derandomize=True, deadline=None)
@example(case=Case(n_side=2, fill=0.4, grounded=False, columns=(1,), pairs=((1, 1),)))
# every column, in order and reversed: the whole G through each path
@example(case=Case(n_side=4, fill=0.6, grounded=True, columns=tuple(range(16)), pairs=((3, 3),)))
@example(
    case=Case(n_side=3, fill=0.4, grounded=False, columns=tuple(range(9))[::-1], pairs=((0, 8),))
)
@given(case=cases())
def test_every_path_agrees_and_attributes_exactly(backend, case, server, cluster):
    spec = _spec(backend, case)
    n = spec.layout.n_contacts
    columns = list(case.columns)
    distinct = set(columns)

    # reference: the whole G through the forced-direct path
    direct = spec.build(dispatch=DispatchPolicy(force_path="direct"))
    counting = CountingSolver(direct)
    g = extract_columns(counting, np.arange(n))
    assert direct.last_dispatch.path == "direct"
    assert counting.solve_count == n
    scale = float(np.abs(g).max())
    want = g[:, columns]

    # forced direct and forced iterative on the drawn columns
    iterative = spec.build(dispatch=DispatchPolicy(force_path="iterative"))
    for solver, path in ((direct, "direct"), (iterative, "iterative")):
        counting = CountingSolver(solver)
        _agree(extract_columns(counting, np.asarray(columns)), want, scale)
        assert solver.last_dispatch.path == path
        assert counting.solve_count == len(columns)

    # Scheduler: a store miss, then a hit of the same columns
    with Scheduler(autostart=False) as scheduler:
        miss = scheduler.submit(JobRequest(spec, columns=case.columns))
        scheduler.step()
        miss = scheduler.result(miss)
        assert miss.status == JobState.DONE
        _agree(miss.result, want, scale)
        assert scheduler.attributed_solves == len(distinct)
        hit = scheduler.submit(JobRequest(spec, columns=case.columns))
        scheduler.step()
        hit = scheduler.result(hit)
        assert hit.status == JobState.DONE
        np.testing.assert_array_equal(hit.result, miss.result)
        assert scheduler.attributed_solves == len(distinct)
        # the warm engine answers one unit vector the same, in this process
        engine = scheduler.pool.get(spec.fingerprint, spec)
        assert scheduler.pool.info()["built"] == 1
        unit = np.zeros(n)
        unit[columns[0]] = 1.0
        _agree(engine.solve_currents(unit), g[:, columns[0]], scale)
        assert multiprocessing.active_children() == []

    # Scheduler: one failed engine build, retried once and charged once
    with Scheduler(autostart=False, retry_policy=FAST_RETRY) as scheduler:
        with faults.inject([{"site": "factor.build", "action": "raise", "times": 1}]):
            retried = scheduler.submit(JobRequest(spec, columns=case.columns))
            scheduler.step()
        retried = scheduler.result(retried)
        assert retried.status == JobState.DONE
        assert retried.attempts == 2
        assert scheduler.metrics.retries == 1
        _agree(retried.result, want, scale)
        assert scheduler.attributed_solves == len(distinct)

    # /v1/stream (fresh columns), /v1/jobs (a repeat), /v1/pairs
    srv, solved = server
    ledger = solved[spec.fingerprint]
    with ServiceClient(srv.url, timeout_s=60.0) as client:
        before = srv.scheduler.attributed_solves
        streamed: dict[int, np.ndarray] = {}
        statuses = []
        for event in client.stream(JobRequest(spec, columns=case.columns)):
            if event["event"] == "columns":
                streamed.update(zip(event["columns"], event["block"].T))
            elif event["event"] == "done":
                statuses.append(event["snapshot"]["status"])
        assert statuses == [JobState.DONE]
        assert sorted(streamed) == sorted(columns)
        _agree(np.column_stack([streamed[c] for c in columns]), want, scale)
        charged = len(distinct - ledger)
        ledger.update(columns)
        assert srv.scheduler.attributed_solves - before == charged

        _agree(client.extract(JobRequest(spec, columns=case.columns)), want, scale)
        assert srv.scheduler.attributed_solves - before == charged

        values = client.pairs(spec, case.pairs)
        _agree(values, np.array([g[i, j] for i, j in case.pairs]), scale)
        pair_columns = {j for _, j in case.pairs}
        charged += len(pair_columns - ledger)
        ledger.update(pair_columns)
        assert srv.scheduler.attributed_solves - before == charged

    # cluster: a prefix, then the whole set (only the rest crosses the RPC)
    leader, workers, served = cluster
    prefix = case.columns[: max(1, len(columns) // 2)]
    with ServiceClient(leader.url, timeout_s=60.0) as client:
        _agree(client.extract(JobRequest(spec, columns=prefix)), g[:, prefix], scale)
        _agree(client.extract(JobRequest(spec, columns=case.columns)), want, scale)
    served[spec.fingerprint].update(columns)
    assert sum(w.scheduler.attributed_solves for w in workers) == sum(
        len(cols) for cols in served.values()
    )
    assert sum(w.scheduler.pool.info()["built"] for w in workers) == len(served)
