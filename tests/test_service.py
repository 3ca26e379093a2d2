"""Extraction service: jobs, result store, scheduler, metrics, HTTP front end."""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np
import pytest

import repro.service.scheduler as scheduler_mod
from repro.service import (
    AsyncExtractionServer,
    JobRequest,
    JobState,
    ResultStore,
    Scheduler,
    ServiceClient,
    UnknownJobError,
)
from repro.service.metrics import ServiceMetrics, latency_percentiles
from repro.substrate.extraction import extract_columns
from repro.substrate.parallel import SolverSpec
from repro.substrate.solver_base import CountingSolver


# ------------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def dense_spec(small_g_module, small_layout_module):
    return SolverSpec.dense(small_g_module, small_layout_module)


@pytest.fixture(scope="module")
def small_layout_module():
    from repro import regular_grid

    return regular_grid(n_side=4, size=128.0, fill=0.5)


@pytest.fixture(scope="module")
def small_profile_module():
    from repro import SubstrateProfile

    return SubstrateProfile.two_layer_example(size=128.0, resistive_bottom=True)


@pytest.fixture(scope="module")
def small_g_module(small_layout_module, small_profile_module):
    from repro import EigenfunctionSolver, extract_dense

    solver = EigenfunctionSolver(
        small_layout_module, small_profile_module, max_panels=32, rtol=1e-10
    )
    return extract_dense(solver, symmetrize=True)


@pytest.fixture(scope="module")
def bem_spec(small_layout_module, small_profile_module):
    return SolverSpec.bem(
        small_layout_module, small_profile_module, max_panels=32, rtol=1e-10
    )


@pytest.fixture
def scheduler(request):
    """Manually stepped scheduler (deterministic coalescing), closed on exit."""
    sched = Scheduler(n_workers=1, autostart=False)
    request.addfinalizer(sched.close)
    return sched


# ----------------------------------------------------------------- JobRequest
def test_job_request_validates_columns_and_pairs(dense_spec):
    n = dense_spec.layout.n_contacts
    with pytest.raises(ValueError):
        JobRequest(dense_spec, columns=(n,))
    with pytest.raises(ValueError):
        JobRequest(dense_spec, columns=())
    with pytest.raises(ValueError):
        JobRequest(dense_spec, pairs=((0, n),))
    with pytest.raises(ValueError):
        JobRequest(dense_spec, timeout_s=0.0)


def test_job_request_needed_columns(dense_spec):
    req = JobRequest(dense_spec, columns=(3, 1), pairs=((0, 5), (2, 1)))
    assert req.needed_columns() == (1, 3, 5)
    dense = JobRequest(dense_spec)
    assert dense.needed_columns() == tuple(range(dense_spec.layout.n_contacts))


def test_fingerprint_separates_substrates_and_tolerances(bem_spec, dense_spec):
    same = JobRequest(bem_spec, columns=(0,))
    other_columns = JobRequest(bem_spec, columns=(1, 2))
    assert same.fingerprint == other_columns.fingerprint  # what, not how much
    tighter = JobRequest(bem_spec, columns=(0,), tolerance=1e-12)
    assert tighter.fingerprint != same.fingerprint
    assert JobRequest(dense_spec, columns=(0,)).fingerprint != same.fingerprint
    # the dense matrix content enters via digest: a perturbed copy differs
    perturbed = SolverSpec.dense(
        np.asarray(dense_spec.options["matrix"]) + 1e-9, dense_spec.layout
    )
    assert perturbed.fingerprint != dense_spec.fingerprint


# ---------------------------------------------------------------- ResultStore
def test_result_store_round_trip_and_counters():
    store = ResultStore(max_bytes=10_000)
    fp = "fp"
    assert store.get(fp, 0) is None
    column = store.put(fp, 0, np.arange(4.0))
    assert not column.flags.writeable
    got = store.get(fp, 0)
    np.testing.assert_array_equal(got, np.arange(4.0))
    info = store.info()
    assert info["hits"] == 1 and info["misses"] == 1 and info["columns"] == 1
    found = store.get_many(fp, (0, 1))
    assert set(found) == {0}


def test_result_store_evicts_lru_under_budget_pressure():
    column_bytes = np.zeros(8).nbytes
    store = ResultStore(max_bytes=3 * column_bytes)
    fp = "fp"
    for c in range(3):
        store.put(fp, c, np.full(8, float(c)))
    store.get(fp, 0)  # refresh 0: the LRU victim must now be 1
    store.put(fp, 3, np.full(8, 3.0))
    assert store.contains(fp, 0) and not store.contains(fp, 1)
    assert store.info()["evictions"] == 1
    # shrinking the budget evicts down immediately
    store.set_budget(column_bytes)
    assert len(store) == 1
    # a value larger than the whole budget is served but never stored
    big = store.put(fp, 9, np.zeros(64))
    assert big.shape == (64,) and not store.contains(fp, 9)


def test_result_store_clear_by_fingerprint():
    store = ResultStore(max_bytes=10_000)
    store.put("a", 0, np.zeros(4))
    store.put("b", 0, np.zeros(4))
    store.clear("a")
    assert not store.contains("a", 0) and store.contains("b", 0)
    store.clear()
    assert len(store) == 0


# ------------------------------------------------------------------ scheduler
def test_coalescing_matches_isolated_solves_and_attribution(
    scheduler, bem_spec, small_g_module
):
    """Two concurrent jobs over one substrate coalesce into one batch whose
    results match isolated extraction at 1e-10 with identical attribution."""
    cols_a, cols_b = (0, 2, 5, 9), (2, 5, 7, 11)
    union = sorted(set(cols_a) | set(cols_b))
    # isolated references, with their own attribution
    iso = {}
    for cols in (cols_a, cols_b):
        counting = CountingSolver(bem_spec.build())
        iso[cols] = extract_columns(counting, np.asarray(cols))
        assert counting.solve_count == len(cols)
    job_a = scheduler.submit(JobRequest(bem_spec, columns=cols_a))
    job_b = scheduler.submit(JobRequest(bem_spec, columns=cols_b))
    assert scheduler.queue_depth == 2
    assert scheduler.step() == 2
    a, b = scheduler.result(job_a), scheduler.result(job_b)
    assert a.status == JobState.DONE and b.status == JobState.DONE
    scale = np.abs(small_g_module).max()
    assert np.abs(a.result - iso[cols_a]).max() / scale < 1e-10
    assert np.abs(b.result - iso[cols_b]).max() / scale < 1e-10
    # one batch, one black-box solve per distinct union column
    assert scheduler.metrics.batches == 1
    assert scheduler.metrics.coalesced_jobs == 2
    assert scheduler.attributed_solves == len(union)
    assert scheduler.metrics.columns_solved == len(union)
    assert scheduler.metrics.columns_from_store == 0


def test_repeated_query_serves_from_store_with_zero_solves(scheduler, dense_spec):
    cols = (1, 4, 6)
    first = scheduler.submit(JobRequest(dense_spec, columns=cols))
    scheduler.step()
    solved_before = scheduler.metrics.columns_solved
    again = scheduler.submit(JobRequest(dense_spec, columns=cols))
    scheduler.step()
    assert scheduler.result(again).status == JobState.DONE
    assert scheduler.metrics.columns_solved == solved_before  # zero new solves
    assert scheduler.metrics.columns_from_store == len(cols)
    np.testing.assert_array_equal(
        scheduler.result(first).result, scheduler.result(again).result
    )


def test_pair_requests_ride_on_solved_columns(scheduler, dense_spec, small_g_module):
    job_id = scheduler.submit(JobRequest(dense_spec, pairs=((0, 3), (7, 3), (2, 9))))
    scheduler.step()
    job = scheduler.result(job_id)
    assert job.status == JobState.DONE and job.result is None
    np.testing.assert_allclose(
        job.pair_values,
        [small_g_module[0, 3], small_g_module[7, 3], small_g_module[2, 9]],
        rtol=1e-12,
    )
    # only the two distinct columns were charged
    assert scheduler.attributed_solves == 2


def test_dense_request_returns_full_matrix(scheduler, dense_spec, small_g_module):
    job_id = scheduler.submit(JobRequest(dense_spec))
    scheduler.step()
    job = scheduler.result(job_id)
    assert job.result_columns == tuple(range(dense_spec.layout.n_contacts))
    np.testing.assert_allclose(job.result, small_g_module, rtol=1e-12)


def test_cancellation_before_start(scheduler, dense_spec):
    job_id = scheduler.submit(JobRequest(dense_spec, columns=(0,)))
    assert scheduler.cancel(job_id) is True
    assert scheduler.result(job_id).status == JobState.CANCELLED
    assert scheduler.step() == 0  # the cancelled job never reaches a batch
    assert scheduler.attributed_solves == 0
    # terminal jobs cannot be cancelled again
    assert scheduler.cancel(job_id) is False
    assert scheduler.metrics.jobs_cancelled == 1
    with pytest.raises(KeyError):
        scheduler.cancel("job-999999")


def test_per_job_timeout_in_queue(scheduler, dense_spec):
    job_id = scheduler.submit(JobRequest(dense_spec, columns=(0,), timeout_s=0.01))
    time.sleep(0.03)
    assert scheduler.step() == 0
    job = scheduler.result(job_id)
    assert job.status == JobState.TIMEOUT
    assert "timed out" in job.error
    assert scheduler.metrics.jobs_timeout == 1
    # a job with a generous deadline is unaffected
    ok = scheduler.submit(JobRequest(dense_spec, columns=(0,), timeout_s=60.0))
    scheduler.step()
    assert scheduler.result(ok).status == JobState.DONE


def test_result_store_eviction_under_pressure_keeps_answers_right(
    dense_spec, small_g_module
):
    """A store too small for the union still serves correct (re-solved) results."""
    n = dense_spec.layout.n_contacts
    column_bytes = small_g_module[:, 0].nbytes
    store = ResultStore(max_bytes=2 * column_bytes)  # space for 2 of 16 columns
    with Scheduler(n_workers=1, autostart=False, store=store) as scheduler:
        first = scheduler.submit(JobRequest(dense_spec))
        scheduler.step()
        np.testing.assert_allclose(
            scheduler.result(first).result, small_g_module, rtol=1e-12
        )
        assert store.info()["evictions"] >= n - 2
        # the repeat can only partially hit the store — it must re-solve the
        # evicted columns and still return the right matrix
        solved_before = scheduler.metrics.columns_solved
        again = scheduler.submit(JobRequest(dense_spec))
        scheduler.step()
        np.testing.assert_allclose(
            scheduler.result(again).result, small_g_module, rtol=1e-12
        )
        assert scheduler.metrics.columns_solved > solved_before


def test_priority_orders_groups_within_a_cycle(scheduler, dense_spec, bem_spec):
    low = scheduler.submit(JobRequest(dense_spec, columns=(0,), priority=0))
    high = scheduler.submit(JobRequest(bem_spec, columns=(0,), priority=5))
    scheduler.step()
    low_job, high_job = scheduler.result(low), scheduler.result(high)
    assert low_job.status == JobState.DONE and high_job.status == JobState.DONE
    assert high_job.finished_at <= low_job.finished_at


def test_failed_build_fails_the_whole_group(
    scheduler, small_layout_module, small_profile_module
):
    bogus = SolverSpec(
        "bem", small_layout_module, small_profile_module, {"no_such_option": 1}
    )
    job_id = scheduler.submit(JobRequest(bogus, columns=(0,)))
    scheduler.step()
    job = scheduler.result(job_id)
    assert job.status == JobState.FAILED
    assert "no_such_option" in job.error
    assert scheduler.metrics.jobs_failed == 1


def test_close_fails_pending_jobs_and_rejects_new_ones(dense_spec):
    scheduler = Scheduler(n_workers=1, autostart=False)
    job_id = scheduler.submit(JobRequest(dense_spec, columns=(0,)))
    scheduler.close()
    assert scheduler.result(job_id).status == JobState.FAILED
    with pytest.raises(RuntimeError):
        scheduler.submit(JobRequest(dense_spec, columns=(0,)))
    scheduler.close()  # idempotent


def test_background_dispatcher_serves_concurrent_clients(bem_spec, small_g_module):
    """The autostarted dispatcher coalesces a concurrent burst on its own."""
    with Scheduler(n_workers=1) as scheduler:
        cols = [(0, 3, 8), (3, 8, 12), (0, 12, 15)]
        results: dict[int, np.ndarray] = {}

        def client(i: int) -> None:
            job_id = scheduler.submit(JobRequest(bem_spec, columns=cols[i]))
            results[i] = scheduler.result(job_id, wait_s=60.0).result

        threads = [threading.Thread(target=client, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        scale = np.abs(small_g_module).max()
        for i, c in enumerate(cols):
            assert results[i] is not None
            assert (
                np.abs(results[i] - small_g_module[:, list(c)]).max() / scale < 1e-8
            )
        # cross-request amortisation: every distinct column solved at most once
        union = {c for cs in cols for c in cs}
        assert scheduler.metrics.columns_solved <= len(union)


def test_extractor_pool_reuses_and_evicts_engines(dense_spec, bem_spec):
    with Scheduler(n_workers=1, autostart=False, max_solvers=1) as scheduler:
        scheduler.submit(JobRequest(dense_spec, columns=(0,)))
        scheduler.step()
        scheduler.submit(JobRequest(dense_spec, columns=(1,)))
        scheduler.step()
        assert scheduler.pool.info()["built"] == 1  # second batch reused it
        scheduler.submit(JobRequest(bem_spec, columns=(0,)))
        scheduler.step()
        info = scheduler.pool.info()
        assert info["built"] == 2 and info["evicted"] == 1 and info["live"] == 1


def test_default_scheduler_solves_in_process(bem_spec):
    """A scheduler with every default starts no child process: not while a
    job solves (its streamed columns land mid-batch) and not after."""
    n = bem_spec.layout.n_contacts
    during = []

    def record_children(event):
        if event["kind"] == "columns":
            during.append(multiprocessing.active_children())

    with Scheduler() as scheduler:
        request = JobRequest(bem_spec, columns=tuple(range(n)))
        job = scheduler.result(scheduler.submit(request, watcher=record_children), wait_s=60.0)
        assert job.status == JobState.DONE
        assert during and all(children == [] for children in during)
        assert multiprocessing.active_children() == []


def test_scheduler_accepts_only_one_worker():
    with pytest.raises(ValueError, match="in-process"):
        Scheduler(n_workers=2)


def test_engine_iteration_history_is_bounded(
    monkeypatch, small_layout_module, small_profile_module
):
    """The scheduler trims the per-solve iteration list of the solver that
    actually ran, so a long-lived engine's history stays bounded while its
    counters keep every column."""
    monkeypatch.setattr(scheduler_mod, "ITERATION_HISTORY", 8)
    built = []
    build = SolverSpec.build

    def recording_build(self, *args, **kwargs):
        solver = build(self, *args, **kwargs)
        built.append(solver)
        return solver

    monkeypatch.setattr(SolverSpec, "build", recording_build)
    spec = SolverSpec.bem(
        small_layout_module,
        small_profile_module,
        max_panels=32,
        rtol=1e-10,
        max_direct_panels=0,  # every column iterates
    )
    with Scheduler(n_workers=1, autostart=False) as scheduler:
        for columns in (range(0, 6), range(6, 11), range(11, 16)):
            scheduler.submit(JobRequest(spec, columns=tuple(columns)))
            scheduler.step()
    assert built
    for solver in built:
        assert len(solver.stats.iterations_per_solve) <= 8
    assert sum(solver.stats.n_iterative_solves for solver in built) == 16


# -------------------------------------------------------------------- metrics
def test_metrics_snapshot_shapes():
    metrics = ServiceMetrics()
    snap = metrics.snapshot(queue_depth=3)
    assert snap["queue_depth"] == 3
    assert snap["latency_s"]["p50"] is None  # no jobs yet
    metrics.record_submit()
    metrics.record_outcome("done", latency_s=0.5)
    metrics.record_outcome("timeout")
    snap = metrics.snapshot()
    assert snap["jobs"]["done"] == 1 and snap["jobs"]["timeout"] == 1
    assert snap["latency_s"]["p90"] == pytest.approx(0.5)
    assert latency_percentiles([1.0, 2.0, 3.0])["p50"] == pytest.approx(2.0)


# ----------------------------------------------------------------------- HTTP
def test_http_end_to_end_two_clients_coalesce(bem_spec, small_g_module):
    """The CI smoke path: start the server, run two concurrent clients over
    the wire, assert agreement and cross-request amortisation."""
    with AsyncExtractionServer(n_workers=1) as server:
        client = ServiceClient(server.url, timeout_s=60.0)
        assert client.healthz()["ok"] is True
        cols = [(0, 2, 5, 9), (2, 5, 7, 11)]
        results: dict[int, np.ndarray] = {}

        def run_client(i: int) -> None:
            results[i] = client.extract(
                JobRequest(bem_spec, columns=cols[i]), timeout_s=60.0
            )

        threads = [threading.Thread(target=run_client, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        scale = np.abs(small_g_module).max()
        for i, c in enumerate(cols):
            assert np.abs(results[i] - small_g_module[:, list(c)]).max() / scale < 1e-8
        stats = client.stats()
        union = {c for cs in cols for c in cs}
        assert stats["coalescing"]["columns_solved"] <= len(union)
        assert stats["jobs"]["done"] == 2


def test_http_error_paths(dense_spec):
    import json
    import urllib.error
    import urllib.request

    with AsyncExtractionServer(n_workers=1) as server:
        client = ServiceClient(server.url, timeout_s=10.0)
        # unknown job id -> 404, typed (and a KeyError, like the scheduler)
        with pytest.raises(UnknownJobError) as err:
            client.result("job-999999")
        assert err.value.status == 404
        assert isinstance(err.value, KeyError)
        # malformed submit document -> 400
        request = urllib.request.Request(
            server.url + "/v1/jobs",
            data=json.dumps({"schema_version": 1, "spec": "not a spec"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10.0)
        assert err.value.code == 400
        # unknown path -> 404
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/nope", timeout=10.0)
        assert err.value.code == 404
        # non-numeric wait_s -> clean JSON 400, not a dropped connection
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/v1/jobs/job-000001?wait_s=abc", timeout=10.0)
        assert err.value.code == 400
        # wait-for-result long-polls a job to completion
        job_id = client.submit(JobRequest(dense_spec, columns=(0,)))
        snapshot = client.wait(job_id, timeout_s=30.0)
        assert snapshot["status"] == JobState.DONE
        assert snapshot["columns"] == [0]


def test_mixed_columns_and_pairs_request(scheduler, dense_spec, small_g_module):
    job_id = scheduler.submit(
        JobRequest(dense_spec, columns=(0, 3), pairs=((1, 7),))
    )
    scheduler.step()
    job = scheduler.result(job_id)
    assert job.status == JobState.DONE
    np.testing.assert_allclose(job.result, small_g_module[:, [0, 3]], rtol=1e-12)
    np.testing.assert_allclose(job.pair_values, [small_g_module[1, 7]], rtol=1e-12)


def test_http_extract_returns_both_blocks_for_mixed_requests(
    dense_spec, small_g_module
):
    with AsyncExtractionServer(n_workers=1) as server:
        client = ServiceClient(server.url, timeout_s=30.0)
        got = client.extract(
            JobRequest(dense_spec, columns=(0, 3), pairs=((1, 7),)), timeout_s=30.0
        )
        assert isinstance(got, tuple)
        block, pair_values = got
        np.testing.assert_allclose(block, small_g_module[:, [0, 3]], rtol=1e-12)
        np.testing.assert_allclose(pair_values, [small_g_module[1, 7]], rtol=1e-12)


def test_finished_job_retention_is_byte_bounded(dense_spec, small_g_module):
    """A service serving wide results must not hoard them: the oldest
    terminal jobs are dropped once retained result bytes exceed the budget."""
    result_bytes = small_g_module.nbytes  # one dense request retains this much
    with Scheduler(
        n_workers=1, autostart=False, max_result_bytes_retained=2 * result_bytes
    ) as scheduler:
        job_ids = [scheduler.submit(JobRequest(dense_spec)) for _ in range(4)]
        scheduler.step()
        # the two oldest results were evicted, the two newest are retrievable
        for stale in job_ids[:2]:
            with pytest.raises(KeyError):
                scheduler.result(stale)
        for live in job_ids[2:]:
            np.testing.assert_allclose(
                scheduler.result(live).result, small_g_module, rtol=1e-12
            )
