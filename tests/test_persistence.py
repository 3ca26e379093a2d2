"""Durable service state: sqlite corpus, factor artifacts, job journal.

Plus regression tests for the service-layer bugfix sweep that shipped with
persistence: health reporting, snapshot consistency, expired-id semantics,
result-store eviction accounting and the pending/running metrics split.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import warnings
from collections import OrderedDict

import numpy as np
import pytest

from repro.service import (
    AsyncExtractionServer,
    ServiceError,
    UnknownJobError,
    Job,
    JobExpiredError,
    JobRequest,
    JobState,
    ResultStore,
    Scheduler,
    ServiceClient,
    ServicePersistence,
    WireFormatError,
)
from repro.service.metrics import ServiceMetrics
from repro.service.result_store import DEFAULT_STORE_BYTES, default_store_bytes
from repro.substrate.extraction import extract_columns
from repro.substrate.factor_cache import (
    DEFAULT_BUDGET_BYTES,
    FactorArtifactStore,
    _default_budget,
    factor_cache,
)
from repro.substrate.parallel import SolverSpec


# ------------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def small_layout_module():
    from repro import regular_grid

    return regular_grid(n_side=4, size=128.0, fill=0.5)


@pytest.fixture(scope="module")
def small_profile_module():
    from repro import SubstrateProfile

    return SubstrateProfile.two_layer_example(size=128.0, resistive_bottom=True)


@pytest.fixture(scope="module")
def bem_spec(small_layout_module, small_profile_module):
    return SolverSpec.bem(
        small_layout_module, small_profile_module, max_panels=32, rtol=1e-10
    )


@pytest.fixture(autouse=True)
def clean_factor_cache():
    """Persistence tests simulate restarts: start and end with a cold cache."""
    factor_cache().clear()
    factor_cache().set_artifact_store(None)
    yield
    factor_cache().clear()
    factor_cache().set_artifact_store(None)


def make_scheduler(state_dir, **kwargs) -> Scheduler:
    return Scheduler(n_workers=1, autostart=False, persistence=state_dir, **kwargs)


# ----------------------------------------------------- tentpole: restart corpus
def test_restart_serves_corpus_with_zero_solves(tmp_path, bem_spec):
    state = tmp_path / "state"
    with make_scheduler(state) as sched:
        job = sched.result(sched.submit(JobRequest(bem_spec, columns=(0, 3, 5))))
        sched.step()
        assert job.status == JobState.DONE
        assert sched.attributed_solves == 3
        reference = np.array(job.result)

    factor_cache().clear()  # a new process holds no RAM factors
    with make_scheduler(state) as sched:
        job = sched.result(sched.submit(JobRequest(bem_spec, columns=(0, 3, 5))))
        sched.step()
        assert job.status == JobState.DONE
        # the tentpole invariant: zero new attributed solves, exact agreement
        assert sched.attributed_solves == 0
        assert np.allclose(job.result, reference, rtol=1e-10, atol=0)
        assert sched.store.info()["disk_hits"] == 3


def test_restart_fresh_column_costs_exactly_one_solve(tmp_path, bem_spec):
    state = tmp_path / "state"
    with make_scheduler(state) as sched:
        sched.submit(JobRequest(bem_spec, columns=(0, 1)))
        sched.step()

    factor_cache().clear()
    with make_scheduler(state) as sched:
        hits_before = factor_cache().artifact_hits
        job = sched.result(sched.submit(JobRequest(bem_spec, columns=(1, 2))))
        sched.step()
        assert job.status == JobState.DONE
        assert sched.attributed_solves == 1  # column 1 from disk, 2 solved
        # the restarted engine loaded its factor from the artifact store
        assert factor_cache().artifact_hits == hits_before + 1
        engine = sched.pool.get(bem_spec.fingerprint, bem_spec)
        assert engine.stats.n_factor_rebuilds == 0


def test_no_state_dir_behaviour_unchanged(bem_spec):
    with Scheduler(n_workers=1, autostart=False) as sched:
        assert sched.persistence is None
        info = sched.store.info()
        assert "backend" not in info
        job = sched.result(sched.submit(JobRequest(bem_spec, columns=(0,))))
        sched.step()
        assert job.status == JobState.DONE
        assert factor_cache().artifact_store is None
        assert "persistence" not in sched.stats()


# ------------------------------------------------------- tentpole: artifacts
def test_artifact_store_warm_start_skips_rebuild(tmp_path, bem_spec):
    state = tmp_path / "state"
    with make_scheduler(state) as sched:
        sched.submit(JobRequest(bem_spec, columns=(0,)))
        sched.step()
        assert (state / "artifacts").is_dir()
        assert list((state / "artifacts").glob("*.npz"))

    factor_cache().clear()
    with make_scheduler(state):
        # a bare solver over the same spec attaches the persisted factor:
        # zero rebuilds, counter-pinned
        cache = factor_cache()
        hits_before = cache.artifact_hits
        solver = bem_spec.build()
        assert solver.prepare_direct()
        assert solver.stats.n_factor_rebuilds == 0
        assert cache.artifact_hits == hits_before + 1

    # without the artifact store the same cold build must rebuild
    factor_cache().clear()
    solver = bem_spec.build()
    assert solver.prepare_direct()
    assert solver.stats.n_factor_rebuilds == 1


def test_corrupt_artifact_is_a_miss_not_a_crash(tmp_path, bem_spec):
    state = tmp_path / "state"
    with make_scheduler(state) as sched:
        sched.submit(JobRequest(bem_spec, columns=(0,)))
        sched.step()
    for payload in (state / "artifacts").glob("*.npz"):
        payload.write_bytes(b"not an npz file")

    factor_cache().clear()
    with make_scheduler(state) as sched:
        with pytest.warns(RuntimeWarning, match="artifact"):
            job = sched.result(sched.submit(JobRequest(bem_spec, columns=(1,))))
            sched.step()
        assert job.status == JobState.DONE  # rebuilt, served anyway


def test_non_finite_artifact_is_a_miss_not_a_solve(tmp_path, bem_spec):
    """A well-formed artifact whose factor holds a NaN is refused at load:
    a warned, counted miss, then one counted rebuild.  No block ever solves
    on it (its solves no longer rescan the factor)."""
    state = tmp_path / "state"
    with make_scheduler(state) as sched:
        sched.submit(JobRequest(bem_spec, columns=(0,)))
        sched.step()
    (payload,) = (state / "artifacts").glob("*.npz")
    with np.load(payload) as old:
        arrays = {name: old[name].copy() for name in old.files}
    arrays["a0"][0, 0] = np.nan
    with open(payload, "wb") as fh:
        np.savez(fh, **arrays)

    key = bem_spec.build().factor_cache_key
    store = FactorArtifactStore(state / "artifacts")
    with pytest.warns(RuntimeWarning, match="NaN or inf"):
        assert store.load(key) is None
    assert store.info()["misses"] == 1

    factor_cache().clear()
    cache = factor_cache()
    artifact_misses = cache.artifact_misses
    with make_scheduler(state) as sched:
        with pytest.warns(RuntimeWarning, match="NaN or inf"):
            job = sched.result(sched.submit(JobRequest(bem_spec, columns=(1,))))
            sched.step()
        assert job.status == JobState.DONE
        assert cache.artifact_misses == artifact_misses + 1
        spec = job.request.effective_spec
        engine = sched.pool.get(spec.fingerprint, spec)
        assert engine.stats.n_factor_rebuilds == 1


# --------------------------------------------------------- tentpole: journal
def test_journal_replays_after_simulated_crash(tmp_path, bem_spec):
    state = tmp_path / "state"
    with make_scheduler(state) as sched:
        served = sched.submit(JobRequest(bem_spec, columns=(0,)))
        sched.step()
        column_0 = sched.result(served).result[:, 0]
    crashed = make_scheduler(state)
    job_id = crashed.submit(JobRequest(bem_spec, columns=(0, 2)))
    # simulated crash: the state dir survives, the scheduler never drains
    crashed.persistence.close()

    with make_scheduler(state) as sched:
        assert sched.metrics.jobs_replayed == 1
        assert sched.queue_depth == 1
        sched.step()
        job = sched.result(job_id)  # original id survives the crash
        assert job.status == JobState.DONE
        assert job.result.shape[1] == 2
        # the replay reads column 0 from the corpus and solves only column 2
        assert sched.attributed_solves == 1
        np.testing.assert_array_equal(job.result[:, 0], column_0)
        column_2 = extract_columns(bem_spec.build(), np.array([2]))[:, 0]
        assert np.abs(job.result[:, 1] - column_2).max() <= 1e-10 * np.abs(column_2).max()
        # replayed ids are never reissued
        assert sched.submit(JobRequest(bem_spec, columns=(1,))) != job_id
    crashed.close()


def test_graceful_close_preserves_accepted_work(tmp_path, bem_spec):
    state = tmp_path / "state"
    sched = make_scheduler(state)
    job_id = sched.submit(JobRequest(bem_spec, columns=(0,)))
    sched.close()  # never drained: close fails it locally but not on disk

    with make_scheduler(state) as sched:
        assert sched.metrics.jobs_replayed == 1
        sched.step()
        assert sched.result(job_id).status == JobState.DONE


def test_finished_jobs_do_not_replay(tmp_path, bem_spec):
    state = tmp_path / "state"
    with make_scheduler(state) as sched:
        finished = sched.submit(JobRequest(bem_spec, columns=(0,)))
        sched.step()
    with make_scheduler(state) as sched:
        assert sched.metrics.jobs_replayed == 0
        assert sched.queue_depth == 0
        # the restored sequence says the finished id was issued here
        with pytest.raises(JobExpiredError):
            sched.result(finished)
        assert sched.submit(JobRequest(bem_spec, columns=(0,))) == "job-000002"


def test_corrupt_journal_entry_skipped_with_warning(tmp_path, bem_spec):
    state = tmp_path / "state"
    crashed = make_scheduler(state)
    job_id = crashed.submit(JobRequest(bem_spec, columns=(0,)))
    crashed.persistence.close()
    journal = state / "journal.jsonl"
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write("this is not json\n")
        fh.write(json.dumps({"event": "accept", "job_id": "job-bad"})[:-9] + "\n")

    with pytest.warns(RuntimeWarning, match="journal"):
        sched = make_scheduler(state)
    try:
        # the intact accept still replays; the torn tail lines are skipped
        assert sched.metrics.jobs_replayed == 1
        sched.step()
        assert sched.result(job_id).status == JobState.DONE
    finally:
        sched.close()
        crashed.close()


def test_undecodable_journal_accept_fails_startup(tmp_path, bem_spec, tripwire_pickle):
    """A complete accept line must carry a /v1 request document.  Older
    releases journaled base64 pickle; such a line (or any request that fails
    request_from_wire) stops startup with a message naming the file, the
    line and the retired format — it is never unpickled, never skipped."""
    tripwire, sentinel = tripwire_pickle
    for index, request in enumerate((tripwire, "AAA", {"schema_version": 1, "spec": None})):
        state = tmp_path / f"state{index}"
        with make_scheduler(state) as sched:
            sched.submit(JobRequest(bem_spec, columns=(0,)))  # left unserved
        journal = state / "journal.jsonl"
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"event": "accept", "job_id": "job-000002", "request": request}))
            fh.write("\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raise, do not warn-and-skip
            with pytest.raises(WireFormatError) as excinfo:
                make_scheduler(state)
        message = str(excinfo.value)
        assert f"{journal}:2" in message
        assert "base64-pickled" in message
        assert factor_cache().artifact_store is None  # the failed start let go
    assert not sentinel.exists()


def test_unencodable_request_is_refused_before_the_ack(tmp_path, bem_spec):
    state = tmp_path / "state"
    options = {**bem_spec.options, "tags": {"not", "json"}}  # a set has no wire form
    spec = SolverSpec("bem", bem_spec.layout, bem_spec.profile, options)
    with make_scheduler(state) as sched:
        with pytest.raises(WireFormatError, match="set"):
            sched.submit(JobRequest(spec, columns=(0,)))
        assert sched.queue_depth == 0
        assert sched.metrics.jobs_submitted == 0
        assert sched.persistence.journal.info()["accepts"] == 0
        assert (state / "journal.jsonl").read_text() == ""
        # no job id was burnt on the refused request
        assert sched.submit(JobRequest(bem_spec, columns=(0,))) == "job-000001"


def test_sqlite_backend_roundtrip(tmp_path):
    from repro.service import SqliteResultBackend

    backend = SqliteResultBackend(tmp_path / "results.sqlite")
    fp = "bem-fingerprint"
    values = np.arange(5.0)
    backend.save(fp, 3, values)
    assert backend.contains(fp, 3)
    assert not backend.contains(fp, 4)
    loaded = backend.load(fp, 3)
    assert not loaded.flags.writeable
    np.testing.assert_array_equal(loaded, values)
    assert backend.load("other", 3) is None
    assert backend.info()["columns"] == 1
    assert backend.delete(fp) == 1
    assert backend.info()["columns"] == 0
    backend.close()


def test_sqlite_backend_info_counts_without_a_query(tmp_path):
    """``info()`` reports the corpus size from counters kept exact by every
    save and delete, so ``/v1/stats`` never scans the corpus."""
    from repro.service import SqliteResultBackend

    path = tmp_path / "results.sqlite"

    def check(backend):
        statements: list[str] = []
        backend._conn.set_trace_callback(statements.append)
        try:
            info = backend.info()
        finally:
            backend._conn.set_trace_callback(None)
        assert statements == []
        scan = sqlite3.connect(path)
        try:
            expected = scan.execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(data)), 0) FROM result_columns"
            ).fetchone()
        finally:
            scan.close()
        assert (info["columns"], info["bytes"]) == expected
        return info

    backend = SqliteResultBackend(path)
    try:
        backend.save("a", 0, np.ones(4))
        backend.save("a", 1, np.ones(4))
        backend.save("b", 0, np.ones(3))
        assert check(backend)["columns"] == 3
        backend.save("a", 0, np.ones(6))  # replaced by a longer column
        assert check(backend)["bytes"] == 8 * (6 + 4 + 3)
        assert backend.delete("a") == 2
        assert check(backend)["columns"] == 1
        backend.save("a", 2, np.ones(2))
        assert backend.delete(None) == 2
        assert check(backend)["columns"] == 0
        backend.save("c", 0, np.ones(5))
    finally:
        backend.close()
    reopened = SqliteResultBackend(path)
    try:
        assert check(reopened)["bytes"] == 8 * 5
    finally:
        reopened.close()


def test_result_store_info_counts_without_a_walk():
    """``info()`` reports per-fingerprint occupancy from counts kept where
    columns are admitted, evicted or cleared; after every step they equal a
    walk over the stored columns, and an emptied fingerprint is gone."""

    class Columns(OrderedDict):
        walks = 0

        def __iter__(self):
            Columns.walks += 1
            return super().__iter__()

        def items(self):
            Columns.walks += 1
            return super().items()

    store = ResultStore(max_bytes=8 * 40)
    store._columns = Columns()

    def check() -> dict:
        walks = Columns.walks
        info = store.info()
        assert Columns.walks == walks  # no walk over the stored columns
        walk: dict[str, dict[str, int]] = {}
        for (fingerprint, _), values in store._columns.items():
            entry = walk.setdefault(fingerprint, {"columns": 0, "bytes": 0})
            entry["columns"] += 1
            entry["bytes"] += values.nbytes
        reported = {
            e["digest"]: {"columns": e["columns"], "bytes": e["bytes"]}
            for e in info["fingerprints"]
        }
        assert reported == walk
        assert info["columns"] == sum(e["columns"] for e in walk.values())
        assert info["bytes"] == sum(e["bytes"] for e in walk.values())
        return info

    for column in range(3):
        store.put("a", column, np.ones(8))
        store.put("b", column, np.ones(4))
    assert check()["evictions"] == 0
    store.put("a", 0, np.ones(2))  # replaced by a shorter column
    assert check()["bytes"] == 8 * (2 + 8 + 8 + 3 * 4)
    store.put("c", 0, np.ones(20))  # LRU evictions: a's and b's oldest go
    info = check()
    assert info["evictions"] == 2 and info["bytes"] <= 8 * 40
    store.put("d", 0, np.ones(41))  # larger than the whole budget
    info = check()
    assert info["oversized"] == 1 and "d" not in {e["digest"] for e in info["fingerprints"]}
    store.clear("b")
    assert "b" not in {e["digest"] for e in check()["fingerprints"]}
    store.set_budget(8 * 21)  # evicts down to the newest columns
    assert {e["digest"] for e in check()["fingerprints"]} == {"c"}
    store.clear()
    assert check()["fingerprints"] == []


def test_artifact_store_info_counts_without_a_scan(tmp_path, monkeypatch):
    """The artifact store counts its payloads once at open and then on each
    new save; ``info()`` equals a directory scan after saves, a repeated
    save, a payload orphaned by a crash and a reopen."""
    root = tmp_path / "artifacts"

    def no_scan(*args, **kwargs):
        raise AssertionError("info() scanned the artifact directory")

    def check(store: FactorArtifactStore) -> dict:
        with monkeypatch.context() as patch:
            patch.setattr(type(root), "glob", no_scan)
            info = store.info()
        payloads = list(root.glob("*.npz"))
        assert info["artifacts"] == len(payloads)
        assert info["bytes"] == sum(p.stat().st_size for p in payloads)
        return info

    def factor(n: int) -> tuple:
        return ("chol", (np.asfortranarray(np.eye(n)), False))

    store = FactorArtifactStore(root)
    assert check(store)["artifacts"] == 0
    assert store.save(("bem_direct_factor", "a"), factor(3))
    assert store.save(("bem_direct_factor", "b"), factor(5))
    assert store.save(("bem_direct_factor", "a"), factor(3))  # already there
    assert check(store)["artifacts"] == 2
    # a crash between the payload and its sidecar leaves an orphan payload
    meta_b, payload_b = store._paths(("bem_direct_factor", "b"))
    meta_b.unlink()
    reopened = FactorArtifactStore(root)
    assert check(reopened)["artifacts"] == 2
    assert reopened.save(("bem_direct_factor", "b"), factor(5))  # replaces it
    assert reopened.save(("bem_direct_factor", "c"), factor(4))
    info = check(reopened)
    assert (info["artifacts"], info["saves"]) == (3, 2)


def test_result_store_write_through_and_read_through(tmp_path):
    from repro.service import SqliteResultBackend

    backend = SqliteResultBackend(tmp_path / "results.sqlite")
    store = ResultStore(max_bytes=1024, backend=backend)
    fp = "fp"
    store.put(fp, 0, np.arange(4.0))
    assert backend.contains(fp, 0)  # write-through

    fresh = ResultStore(max_bytes=1024, backend=backend)
    got = fresh.get(fp, 0)  # read-through on a cold LRU
    np.testing.assert_array_equal(got, np.arange(4.0))
    info = fresh.info()
    assert info["disk_hits"] == 1 and info["hits"] == 1 and info["misses"] == 0
    assert fresh.get(fp, 0) is not None  # now a RAM hit
    assert fresh.info()["disk_hits"] == 1
    assert fresh.contains(fp, 1) is False
    backend.close()


def test_persistence_object_lifecycle(tmp_path):
    with ServicePersistence(tmp_path / "state") as persistence:
        assert persistence.writable()
        info = persistence.info()
        assert set(info) == {"state_dir", "results", "artifacts", "journal"}
    # close is idempotent and releases handles
    persistence.close()


# -------------------------------------------------- bugfix: health reporting
def test_health_reports_dead_dispatcher_and_closed_scheduler(bem_spec):
    sched = Scheduler(n_workers=1, autostart=False)
    assert sched.health()["ok"]  # manual scheduler: healthy while open
    # a dispatcher thread that died must flip health, even before close()
    dead = threading.Thread(target=lambda: None)
    dead.start()
    dead.join()
    sched._thread = dead
    health = sched.health()
    assert not health["ok"] and not health["dispatcher_alive"]
    sched._thread = None
    sched.close()
    assert not sched.health()["ok"] and sched.health()["closing"]


def test_healthz_returns_503_when_unhealthy(bem_spec):
    sched = Scheduler(n_workers=1, autostart=False)
    server = AsyncExtractionServer(scheduler=sched).start()
    try:
        client = ServiceClient(server.url)
        assert client.healthz()["ok"]
        sched.close()
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 503
    finally:
        server.close()
        sched.close()


def test_health_includes_state_dir_writability(tmp_path):
    with make_scheduler(tmp_path / "state") as sched:
        assert sched.health()["state_dir_writable"]


# ---------------------------------------------- bugfix: snapshot consistency
def test_snapshot_hides_result_fields_outside_terminal_states():
    job = Job(
        job_id="job-000001",
        request=None,  # snapshot only touches request.pairs via the guard
        submitted_at=time.monotonic(),
    )
    job.request = type("R", (), {"pairs": None})()
    job.status = JobState.RUNNING
    job.result_columns = (0, 1)
    job.result = np.eye(2)  # mid-assembly values must never leak
    job.pair_values = np.array([1.0])
    snap = job.snapshot()
    assert snap["status"] == JobState.RUNNING
    assert snap["columns"] is None
    assert snap["result"] is None
    assert snap["pair_values"] is None
    job.status = JobState.DONE
    snap = job.snapshot()
    assert snap["columns"] == [0, 1]
    # arrays stay ndarrays: snapshot_to_wire is the one encoder
    assert snap["result"] is job.result
    assert snap["pair_values"] is job.pair_values


def test_scheduler_snapshot_is_taken_under_lock(bem_spec):
    with Scheduler(n_workers=1, autostart=False) as sched:
        job_id = sched.submit(JobRequest(bem_spec, columns=(0,)))
        assert sched.snapshot(job_id)["status"] == JobState.PENDING
        sched.step()
        snap = sched.snapshot(job_id)
        assert snap["status"] == JobState.DONE
        assert snap["columns"] == [0]
        assert snap["result"] is not None


# ------------------------------------------------- bugfix: expired-id answer
def test_expired_job_id_distinguished_from_unknown(bem_spec):
    with Scheduler(n_workers=1, autostart=False, max_jobs_retained=1) as sched:
        first = sched.submit(JobRequest(bem_spec, columns=(0,)))
        sched.submit(JobRequest(bem_spec, columns=(1,)))
        sched.step()
        with pytest.raises(JobExpiredError):
            sched.result(first)
        with pytest.raises(KeyError) as excinfo:
            sched.result("job-999999")
        assert not isinstance(excinfo.value, JobExpiredError)
        # JobExpiredError subclasses KeyError: uniform "gone" handling works
        with pytest.raises(KeyError):
            sched.result(first)


def test_http_410_for_expired_job(bem_spec):
    sched = Scheduler(n_workers=1, autostart=False, max_jobs_retained=1)
    server = AsyncExtractionServer(scheduler=sched).start()
    try:
        client = ServiceClient(server.url)
        first = client.submit(JobRequest(bem_spec, columns=(0,)))
        client.submit(JobRequest(bem_spec, columns=(1,)))
        sched.step()
        with pytest.raises(JobExpiredError):
            client.result(first)
        with pytest.raises(UnknownJobError) as excinfo:
            client.result("job-999999")
        assert excinfo.value.status == 404
    finally:
        server.close()
        sched.close()


# --------------------------------------- bugfix: store eviction + env budget
def test_clear_counts_evictions():
    store = ResultStore(max_bytes=1 << 20)
    fp_a, fp_b = "a", "b"
    store.put(fp_a, 0, np.arange(4.0))
    store.put(fp_a, 1, np.arange(4.0))
    store.put(fp_b, 0, np.arange(4.0))
    assert store.clear(fp_a) == 2
    assert store.evictions == 2
    assert store.clear() == 1
    assert store.evictions == 3
    assert len(store) == 0


def test_default_store_bytes_validates_env(monkeypatch):
    """Both byte budgets share one parser: a malformed or negative value
    warns and falls back to the default."""
    for variable, read, default in (
        ("REPRO_RESULT_STORE_BYTES", default_store_bytes, DEFAULT_STORE_BYTES),
        ("REPRO_FACTOR_CACHE_BYTES", _default_budget, DEFAULT_BUDGET_BYTES),
    ):
        monkeypatch.setenv(variable, "1024")
        assert read() == 1024
        for bad in ("not-a-number", "512MiB", "-1"):
            monkeypatch.setenv(variable, bad)
            with pytest.warns(RuntimeWarning, match=variable):
                assert read() == default
        monkeypatch.delenv(variable)
        assert read() == default


# ------------------------------------------- bugfix: pending/running split
def test_metrics_report_pending_and_running_separately():
    metrics = ServiceMetrics()
    for _ in range(3):
        metrics.record_submit()
    metrics.record_outcome("done")
    jobs = metrics.snapshot(running=1)["jobs"]
    assert jobs == {
        "submitted": 3,
        "done": 1,
        "failed": 0,
        "cancelled": 0,
        "timeout": 0,
        "shed": 0,
        "replayed": 0,
        "running": 1,
        "pending": 1,
    }
    # no running count given: pending falls back to the old definition
    assert metrics.snapshot()["jobs"]["pending"] == 2


def test_stats_expose_running_jobs_mid_batch(bem_spec):
    with Scheduler(n_workers=1, autostart=False) as sched:
        sched.submit(JobRequest(bem_spec, columns=(0,)))
        assert sched.stats()["jobs"]["pending"] == 1
        assert sched.stats()["jobs"]["running"] == 0
        sched.step()
        stats = sched.stats()
        assert stats["jobs"]["running"] == 0
        assert stats["jobs"]["pending"] == 0
        assert stats["jobs"]["done"] == 1
