"""Leader/worker cluster: routing, membership, failover, auth, wire docs.

The load-bearing assertions mirror the PR's acceptance gates on small
substrates: cluster answers agree with the single-host reference to 1e-10,
each fingerprint's factor state lives on exactly one worker host
(exactly-once attribution summed across the cluster), a worker dying
mid-stream loses zero accepted jobs (the leader re-routes its fingerprints
to a survivor), and the bearer token guards both the public ``/v1``
surface and the intra-cluster RPCs.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import (
    ClusterLeader,
    ClusterWorker,
    FingerprintRouter,
    HostRegistry,
    NoWorkersError,
)
from repro.cluster.protocol import (
    completion_doc,
    completion_from_wire,
    heartbeat_doc,
    heartbeat_from_wire,
    serve_solve,
)
from repro.service import (
    JobExpiredError,
    JobRequest,
    QueueSaturatedError,
    ResultStore,
    Scheduler,
    ServiceClient,
    UnauthorizedError,
    WireFormatError,
)
from repro.service.wire import request_from_wire, request_to_wire
from repro.substrate.parallel import SolverSpec


# ------------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def small_layout():
    from repro import regular_grid

    return regular_grid(n_side=3, size=128.0, fill=0.5)


@pytest.fixture(scope="module")
def small_g(small_layout):
    from repro import EigenfunctionSolver, SubstrateProfile, extract_dense

    profile = SubstrateProfile.two_layer_example(size=128.0, resistive_bottom=True)
    solver = EigenfunctionSolver(small_layout, profile, max_panels=32, rtol=1e-10)
    return extract_dense(solver, symmetrize=True)


@pytest.fixture(scope="module")
def spec_a(small_g, small_layout):
    return SolverSpec.dense(small_g, small_layout)


@pytest.fixture(scope="module")
def spec_b(small_g, small_layout):
    # a different matrix is a different substrate: distinct fingerprint
    return SolverSpec.dense(1.5 * small_g, small_layout)


def _worker_attribution(*workers) -> int:
    return sum(int(w.scheduler.stats()["attributed_solves"]) for w in workers)


# ----------------------------------------------------------------- wire docs
def test_heartbeat_doc_round_trip():
    doc = heartbeat_doc("w-7", "http://h:1234", queue_depth=3, draining=True)
    assert set(doc) == {"schema_version", "worker_id", "url", "draining", "queue_depth"}
    assert heartbeat_from_wire(doc) == {
        "worker_id": "w-7",
        "url": "http://h:1234",
        "draining": True,
        "queue_depth": 3,
    }
    # anything else is a bad document (400), not a crash: no version, an
    # empty id or URL, a queue depth that is not a non-negative integer
    for bad in (
        {key: value for key, value in doc.items() if key != "schema_version"},
        {**doc, "worker_id": ""},
        {**doc, "url": ""},
        {**doc, "queue_depth": "many"},
        {**doc, "queue_depth": 1.5},
        {**doc, "queue_depth": -1},
        {key: value for key, value in doc.items() if key != "queue_depth"},
    ):
        with pytest.raises(WireFormatError):
            heartbeat_from_wire(bad)


def test_completion_doc_round_trip_is_exact():
    rng = np.random.default_rng(7)
    block = rng.standard_normal((9, 3))
    doc = completion_doc("w-1", "job-000001", (2, 5, 7), block, 3)
    out = completion_from_wire(doc)
    assert out["worker_id"] == "w-1"
    assert out["job_id"] == "job-000001"
    assert out["columns"] == (2, 5, 7)
    assert out["attributed_solves"] == 3
    # base64 float64 wire arrays are bit-exact, not merely close
    assert np.array_equal(out["block"], block)
    bad = dict(doc)
    bad["columns"] = [2, 5]
    with pytest.raises(WireFormatError):
        completion_from_wire(bad)


def test_serve_solve_releases_the_answered_job(spec_a, small_g):
    """The block travels in the RPC answer, so the worker keeps no copy:
    retained jobs would otherwise grow with every RPC served."""
    with Scheduler(n_workers=1) as scheduler:
        status, doc = serve_solve(
            scheduler, request_to_wire(JobRequest(spec_a, columns=(0, 4))), "w-1"
        )
        assert status == 200
        completion = completion_from_wire(doc)
        assert np.allclose(completion["block"], small_g[:, [0, 4]], atol=1e-12)
        assert completion["attributed_solves"] == 2
        with pytest.raises(JobExpiredError):
            scheduler.result(completion["job_id"])
        assert scheduler.release(completion["job_id"]) is False


def test_concurrent_serve_solves_release_every_job(spec_a):
    """Releases race the dispatcher's finalize; retention must end empty."""
    statuses: list[int] = []

    def client(k: int) -> None:
        for i in range(5):
            doc = request_to_wire(JobRequest(spec_a, columns=((k + i) % 9,)))
            statuses.append(serve_solve(scheduler, doc, "w-1")[0])

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Scheduler(n_workers=1) as scheduler:
            threads = [threading.Thread(target=client, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert statuses == [200] * 30
            with scheduler._cv:
                assert scheduler._retained_bytes == 0
                assert not scheduler._terminal and not scheduler._jobs
    finally:
        sys.setswitchinterval(previous)


def test_cluster_request_round_trip_preserves_fingerprint(spec_a):
    request = JobRequest(spec_a, columns=(0, 3, 4))
    decoded = request_from_wire(request_to_wire(request))
    assert decoded.effective_spec.fingerprint == request.effective_spec.fingerprint
    assert decoded.columns == request.columns


# ------------------------------------------------------------------ registry
def test_registry_lease_expiry_is_lazy():
    registry = HostRegistry(lease_s=10.0)
    registry.heartbeat("w-1", "http://h:1")
    now = time.monotonic()
    assert [h.worker_id for h in registry.live(now)] == ["w-1"]
    # inside the lease: still live; past it: swept into the dead set on read
    assert registry.live(now + 9.0)
    assert registry.live(now + 11.0) == []
    assert registry.dead() == {"w-1": "lease expired"}
    assert registry.expirations == 1


def test_registry_heartbeat_admits_renews_moves_and_resurrects():
    registry = HostRegistry(lease_s=10.0)
    # a first beat admits the host
    record = registry.heartbeat("w-1", "http://h:1/", queue_depth=2)
    assert record.url == "http://h:1" and record.queue_depth == 2
    assert registry.registrations == 1
    # a live host's beat renews it and takes its load: no new admission
    registry.heartbeat("w-1", "http://h:1", queue_depth=3)
    assert registry.get("w-1").queue_depth == 3
    assert registry.get("w-1").heartbeats == 2
    assert registry.registrations == 1
    # a beat from a new URL moves the host, keeping its identity
    registry.heartbeat("w-1", "http://h:2")
    assert registry.get("w-1").url == "http://h:2"
    assert registry.registrations == 1
    # a dead host's next beat re-admits it with a fresh record
    registry.mark_dead("w-1", "rpc failed")
    assert registry.live() == []
    registry.heartbeat("w-1", "http://h:3")
    assert [h.url for h in registry.live()] == ["http://h:3"]
    assert "w-1" not in registry.dead()
    assert registry.get("w-1").heartbeats == 1
    assert registry.registrations == 2
    # admissions, moves and deaths are logged; plain renewals are not
    kinds = [event["kind"] for event in registry.info()["events"]]
    assert kinds == ["registered", "moved", "dead", "registered"]


def test_registry_drain_flag():
    registry = HostRegistry(lease_s=10.0)
    registry.heartbeat("w-1", "http://h:1")
    assert registry.get("w-1").draining is False
    registry.heartbeat("w-1", "http://h:1", draining=True)
    assert registry.get("w-1").draining is True
    registry.heartbeat("w-1", "http://h:1", draining=True)
    registry.heartbeat("w-1", "http://h:1")
    assert registry.get("w-1").draining is False
    kinds = [event["kind"] for event in registry.info()["events"]]
    assert kinds == ["registered", "draining", "undraining"]


# -------------------------------------------------------------------- router
def _static_registry(*worker_ids: str, lease_s: float = 1e9) -> HostRegistry:
    registry = HostRegistry(lease_s=lease_s)
    for worker_id in worker_ids:
        registry.heartbeat(worker_id, f"http://{worker_id}:1")
    return registry


def test_router_is_sticky_and_spreads(spec_a):
    registry = _static_registry("w-1", "w-2", "w-3")
    router = FingerprintRouter(registry)
    fingerprints = [f"fp-{i}" for i in range(24)]
    owners = {fp: router.route(fp).worker_id for fp in fingerprints}
    # sticky: every later route answers the same host
    for fp in fingerprints:
        assert router.route(fp).worker_id == owners[fp]
    # least-pinned placement spreads 24 fingerprints evenly over the hosts
    assert sorted(router.info()["pins_per_host"].values()) == [8, 8, 8]
    assert router.info()["placements"] == 24
    assert router.info()["reroutes"] == 0


def test_router_pins_survive_new_host_but_move_on_death():
    registry = _static_registry("w-1", "w-2")
    router = FingerprintRouter(registry)
    fingerprint = "fp-0"
    owner = router.route(fingerprint).worker_id
    registry.heartbeat("w-3", "http://w-3:1")  # join: warm pins must not move
    assert router.route(fingerprint).worker_id == owner
    registry.mark_dead(owner, "rpc failed")  # death: pin must move
    new_owner = router.route(fingerprint).worker_id
    assert new_owner != owner
    assert router.info()["reroutes"] == 1
    # and the re-placed pin is sticky again
    assert router.route(fingerprint).worker_id == new_owner


def test_router_no_workers_and_draining():
    registry = _static_registry("w-1")
    router = FingerprintRouter(registry)
    fingerprint = "fp-0"
    owner = router.route(fingerprint).worker_id
    registry.heartbeat("w-1", "http://w-1:1", draining=True)
    # draining keeps its pinned fingerprints...
    assert router.route(fingerprint).worker_id == owner
    # ...but takes no new ones
    with pytest.raises(NoWorkersError):
        router.route("fp-1")
    registry.mark_dead("w-1", "gone")
    with pytest.raises(NoWorkersError):
        router.route(fingerprint)


def test_router_balances_small_pin_counts():
    # 4 sticky fingerprints over 2 hosts must split 2/2 whatever their
    # digests hash to — placement is the only load-balancing moment a
    # sticky-pin router gets
    registry = _static_registry("w-1", "w-2")
    router = FingerprintRouter(registry)
    for i in range(4):
        router.route(f"balance-{i}")
    assert sorted(router.info()["pins_per_host"].values()) == [2, 2]


def test_router_load_override_prefers_idle_host():
    # among equally pinned hosts the shorter reported queue wins, whatever
    # the fingerprint's digest/host hash would have picked
    for queues in ((50, 0), (0, 50)):
        registry = _static_registry("w-1", "w-2")
        for worker_id, queue_depth in zip(("w-1", "w-2"), queues):
            registry.heartbeat(worker_id, f"http://{worker_id}:1", queue_depth=queue_depth)
        idle = "w-2" if queues[0] > queues[1] else "w-1"
        for i in range(8):
            assert FingerprintRouter(registry).route(f"probe-{i}").worker_id == idle


# ------------------------------------------------------- remote-solver hook
def test_scheduler_remote_solver_hook(spec_a, small_g):
    calls: list[tuple] = []

    def remote(fingerprint, spec, columns):
        calls.append((fingerprint, columns))
        return small_g[:, list(columns)]

    with Scheduler(remote_solver=remote, autostart=False) as scheduler:
        job_id = scheduler.submit(JobRequest(spec_a, columns=(0, 4)))
        scheduler.step()
        job = scheduler.result(job_id, wait_s=5.0)
        stats = scheduler.stats()
    assert np.allclose(job.result, small_g[:, [0, 4]], atol=1e-12)
    assert calls == [(spec_a.fingerprint, (0, 4))]
    assert stats["coalescing"]["columns_solved"] == 2
    assert stats["attributed_solves"] == 0  # the leader never solves locally
    assert stats["engines"]["built"] == 0  # ...and never builds an engine


def test_scheduler_remote_solver_shape_mismatch_fails_group(spec_a):
    def bad_remote(fingerprint, spec, columns):
        return np.zeros((2, 1))

    from repro.service import RetryPolicy

    with Scheduler(
        remote_solver=bad_remote,
        autostart=False,
        retry_policy=RetryPolicy(max_attempts=1),
    ) as scheduler:
        job_id = scheduler.submit(JobRequest(spec_a, columns=(0,)))
        scheduler.step()
        job = scheduler.result(job_id, wait_s=5.0)
    assert job.status == "failed"
    assert "shape" in (job.error or "")


# ------------------------------------------------------------------- cluster
def test_cluster_end_to_end_matches_single_host(spec_a, spec_b, small_g):
    columns = (0, 2, 5, 8)
    with Scheduler(n_workers=1) as reference:
        ref_a = reference.result(
            reference.submit(JobRequest(spec_a, columns=columns)), wait_s=30.0
        ).result
        ref_b = reference.result(
            reference.submit(JobRequest(spec_b, columns=columns)), wait_s=30.0
        ).result

    with ClusterLeader(auth_token="token-1") as leader:
        with (
            ClusterWorker(
                leader.url, n_workers=1, heartbeat_s=0.2, auth_token="token-1"
            ) as w1,
            ClusterWorker(
                leader.url, n_workers=1, heartbeat_s=0.2, auth_token="token-1"
            ) as w2,
        ):
            with ServiceClient(leader.url, auth_token="token-1") as client:
                got_a = client.extract(JobRequest(spec_a, columns=columns))
                got_b = client.extract(JobRequest(spec_b, columns=columns))
                stats = client.stats()
            assert np.allclose(got_a, ref_a, atol=1e-10)
            assert np.allclose(got_b, ref_b, atol=1e-10)
            # exactly-once attribution: each column solved on one host, once
            assert _worker_attribution(w1, w2) == 2 * len(columns)
            assert stats["coalescing"]["columns_solved"] == 2 * len(columns)
            # repeating the extraction is served from the leader's store:
            # no new RPC, no new attribution anywhere
            rpc_before = stats["cluster"]["rpc_calls"]
            with ServiceClient(leader.url, auth_token="token-1") as client:
                again = client.extract(JobRequest(spec_a, columns=columns))
                stats2 = client.stats()
            assert np.array_equal(again, got_a)
            assert stats2["cluster"]["rpc_calls"] == rpc_before
            assert _worker_attribution(w1, w2) == 2 * len(columns)
            # each fingerprint's warm state lives on exactly one host
            owners = {}
            for worker in (w1, w2):
                for fp in worker.scheduler.store.fingerprints():
                    owners.setdefault(fp, set()).add(worker.worker_id)
            assert owners  # at least one fingerprint landed
            assert all(len(hosts) == 1 for hosts in owners.values())


def test_cluster_failover_reroutes_and_loses_nothing(spec_a, small_g):
    with ClusterLeader() as leader:
        w1 = ClusterWorker(leader.url, n_workers=1, heartbeat_s=0.2).start()
        w2 = ClusterWorker(leader.url, n_workers=1, heartbeat_s=0.2).start()
        try:
            with ServiceClient(leader.url, timeout_s=60.0) as client:
                first = client.extract(JobRequest(spec_a, columns=(0, 1)))
                owner = next(iter(leader.router.pins().values()))
                victim = w1 if w1.worker_id == owner else w2
                survivor = w2 if victim is w1 else w1
                victim.close()  # host death, while the fingerprint is pinned
                # accepted after the death, must still complete: the retry
                # path marks the host dead and re-pins on the survivor
                second = client.extract(JobRequest(spec_a, columns=(2, 3)))
                stats = client.stats()
            assert np.allclose(first, small_g[:, [0, 1]], atol=1e-10)
            assert np.allclose(second, small_g[:, [2, 3]], atol=1e-10)
            assert stats["cluster"]["router"]["reroutes"] >= 1
            assert victim.worker_id in stats["cluster"]["registry"]["dead"]
            assert leader.router.pins() == {spec_a.fingerprint: survivor.worker_id}
            # the survivor did the re-routed solve
            assert int(survivor.scheduler.stats()["attributed_solves"]) == 2
        finally:
            for worker in (w1, w2):
                try:
                    worker.close()
                except Exception:
                    pass


def _cli_env() -> dict:
    """The environment of a CLI process that imports this tree's ``repro``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _spawn_worker(leader_url: str, worker_id: str) -> subprocess.Popen:
    """One ``python -m repro.cluster worker`` process on an ephemeral port."""
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cluster",
            "worker",
            "--leader",
            leader_url,
            "--worker-id",
            worker_id,
            "--heartbeat",
            "0.5",
        ],
        env=_cli_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


@pytest.mark.parametrize(
    "command",
    [["repro.service"], ["repro.cluster", "leader"]],
    ids=["service", "leader"],
)
def test_cli_stops_cleanly_on_sigterm(command, tmp_path):
    """``kill <pid>`` (SIGTERM) stops the service and the leader CLIs through
    their ``close()``: exit status 0 within 10 s, not death by the signal."""
    argv = [sys.executable, "-m", *command, "--port", "0", "--state-dir", str(tmp_path)]
    with subprocess.Popen(
        argv, env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    ) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 30.0)
            assert ready, "no listening line within 30 s"
            assert "listening on" in proc.stdout.readline()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)


def test_worker_processes_agree_and_survive_sigkill():
    """Two worker processes behind a leader return the single-host blocks
    with exactly-once attribution, and SIGKILLing the owner of a fingerprint
    that still owes columns loses nothing: the survivor solves exactly the
    missing columns."""
    from repro import SubstrateProfile, regular_grid

    profile = SubstrateProfile.two_layer_example(size=128.0, resistive_bottom=True)
    specs = [
        SolverSpec.bem(
            regular_grid(n_side=3, size=128.0, fill=fill),
            profile,
            max_panels=32,
            rtol=1e-10,
        )
        for fill in (0.5, 0.4)
    ]
    columns = tuple(range(9))
    first, rest = columns[:4], columns[4:]
    with Scheduler(autostart=False) as single_host:
        ids = [single_host.submit(JobRequest(spec, columns=columns)) for spec in specs]
        single_host.step()
        want = [single_host.result(job_id).result for job_id in ids]
    scale = max(float(np.abs(block).max()) for block in want)

    def agree(got, reference):
        assert np.abs(got - reference).max() <= 1e-10 * scale

    procs = {}
    with ClusterLeader() as leader:
        try:
            for worker_id in ("proc-w1", "proc-w2"):
                procs[worker_id] = _spawn_worker(leader.url, worker_id)
            deadline = time.monotonic() + 30.0
            while len(leader.registry.live()) < 2:
                assert time.monotonic() < deadline, "workers did not register"
                time.sleep(0.05)
            urls = {host.worker_id: host.url for host in leader.registry.live()}

            def worker_stats(worker_id):
                with ServiceClient(urls[worker_id], timeout_s=30.0) as client:
                    return client.stats()

            with ServiceClient(leader.url, timeout_s=60.0) as client:
                for spec, reference in zip(specs, want):
                    block = client.extract(JobRequest(spec, columns=first))
                    agree(block, reference[:, : len(first)])
                stats = {worker_id: worker_stats(worker_id) for worker_id in procs}
                attributed = {w: int(s["attributed_solves"]) for w, s in stats.items()}
                assert sum(attributed.values()) == len(specs) * len(first)
                built = sum(int(s["engines"]["built"]) for s in stats.values())
                assert built == len(specs)  # one factor build per fingerprint

                victim = leader.router.pins()[specs[0].fingerprint]
                (survivor,) = set(procs) - {victim}
                procs[victim].kill()
                procs[victim].wait(timeout=30)
                # the fingerprint still owes `rest`: they must land on the
                # survivor, and `first` must come from the leader's store
                agree(client.extract(JobRequest(specs[0], columns=columns)), want[0])
                cluster = client.stats()["cluster"]
            assert cluster["router"]["reroutes"] >= 1
            assert list(cluster["registry"]["dead"]) == [victim]
            solved = int(worker_stats(survivor)["attributed_solves"])
            assert solved - attributed[survivor] == len(rest)
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
            for proc in procs.values():
                proc.wait(timeout=30)


def test_cluster_auth_guards_public_and_rpc_surfaces(spec_a):
    with ClusterLeader(auth_token="hunter2") as leader:
        with ClusterWorker(
            leader.url, n_workers=1, heartbeat_s=0.2, auth_token="hunter2"
        ) as worker:
            # unauthenticated public client: typed 401
            with ServiceClient(leader.url) as anonymous:
                with pytest.raises(UnauthorizedError):
                    anonymous.stats()
                # the health probe stays open for load balancers
                assert anonymous.healthz()["ok"] is True
            # wrong token on the worker's RPC surface: 401 too
            from repro.cluster.protocol import post_json

            with pytest.raises(UnauthorizedError):
                post_json(
                    worker.url + "/v1/cluster/solve", {}, auth_token="wrong"
                )
            # authenticated end to end
            with ServiceClient(leader.url, auth_token="hunter2") as client:
                block = client.extract(JobRequest(spec_a, columns=(0,)))
            assert block.shape[1] == 1


def test_injected_rpc_send_failure_marks_dead_and_reroutes(spec_a, small_g):
    from repro import faults

    with ClusterLeader() as leader:
        # long heartbeat: the evicted worker must not be re-admitted by its
        # next beat before we assert
        with (
            ClusterWorker(leader.url, n_workers=1, heartbeat_s=30.0) as w1,
            ClusterWorker(leader.url, n_workers=1, heartbeat_s=30.0) as w2,
        ):
            with faults.inject(
                [
                    {
                        "site": "rpc.send",
                        "action": "raise",
                        "exception": "ConnectionError",
                        "times": 1,
                    }
                ]
            ):
                with ServiceClient(leader.url, timeout_s=60.0) as client:
                    block = client.extract(JobRequest(spec_a, columns=(0, 1)))
            assert np.allclose(block, small_g[:, [0, 1]], atol=1e-10)
            # the injected transport failure evicted one host and the retry
            # re-routed the group onto the other
            assert leader.registry.deaths == 1
            assert leader.router.info()["reroutes"] == 1
            survivors = {h.worker_id for h in leader.registry.live()}
            assert len(survivors) == 1 and survivors < {w1.worker_id, w2.worker_id}


def test_dropped_solve_rpc_is_retried_and_keeps_the_host(spec_a, small_g):
    """A worker that drops a solve RPC still answered it (HTTP 503): the
    leader retries the group on the same host and marks nothing dead."""
    from repro import faults

    with ClusterLeader() as leader:
        with ClusterWorker(leader.url, n_workers=1, heartbeat_s=30.0) as worker:
            drop = {
                "site": "rpc.serve",
                "action": "drop",
                "times": 1,
                "match": {"worker_id": worker.worker_id},
            }
            with faults.inject([drop]):
                with ServiceClient(leader.url, timeout_s=60.0) as client:
                    block = client.extract(JobRequest(spec_a, columns=(0, 1)))
                    stats = client.stats()
            assert np.allclose(block, small_g[:, [0, 1]], atol=1e-10)
            assert stats["faults"]["retries"] == 1
            assert stats["cluster"]["rpc_calls"] == 2
            assert stats["cluster"]["rpc_failures"] == 0
            assert stats["cluster"]["router"]["reroutes"] == 0
            assert [h.worker_id for h in leader.registry.live()] == [worker.worker_id]


def test_raising_solve_rpc_is_retried_and_keeps_the_host(spec_a, small_g):
    """A solve handler that raises still answers (HTTP 500 ``internal``),
    so the leader retries the group on the same host: no death, no
    transport failure, no reroute."""
    from repro import faults

    with ClusterLeader() as leader:
        with ClusterWorker(leader.url, n_workers=1, heartbeat_s=30.0):
            plan = [
                {"site": "rpc.serve", "action": "raise", "exception": "ValueError", "times": 1}
            ]
            with faults.inject(plan):
                with ServiceClient(leader.url, timeout_s=60.0) as client:
                    block = client.extract(JobRequest(spec_a, columns=(0, 1)))
                    stats = client.stats()
            assert np.abs(block - small_g[:, [0, 1]]).max() <= 1e-10 * np.abs(small_g).max()
            assert stats["faults"]["retries"] == 1
            assert leader.registry.deaths == 0
            assert stats["cluster"]["rpc_failures"] == 0
            assert stats["cluster"]["router"]["reroutes"] == 0


def test_dropped_heartbeats_expire_lease_then_worker_recovers():
    from repro import faults

    with ClusterLeader(lease_s=0.5) as leader:
        with ClusterWorker(leader.url, n_workers=1, heartbeat_s=0.1) as worker:
            deadline = time.monotonic() + 5.0
            while not leader.registry.live() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert leader.registry.live()
            with faults.inject(
                [{"site": "worker.heartbeat", "action": "drop", "times": None}]
            ):
                deadline = time.monotonic() + 5.0
                while leader.registry.live() and time.monotonic() < deadline:
                    time.sleep(0.05)
                # a hung-but-listening host: its lease expires on read
                assert leader.registry.live() == []
                assert leader.registry.dead() == {worker.worker_id: "lease expired"}
            # heartbeats resume and the first one to land re-admits the
            # worker — no operator involved
            deadline = time.monotonic() + 5.0
            while not leader.registry.live() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [h.worker_id for h in leader.registry.live()] == [worker.worker_id]


def test_worker_reregisters_after_leader_restart_forgets_it(spec_a):
    with ClusterLeader(lease_s=30.0) as leader:
        with ClusterWorker(leader.url, n_workers=1, heartbeat_s=0.1) as worker:
            deadline = time.monotonic() + 5.0
            while not leader.registry.live() and time.monotonic() < deadline:
                time.sleep(0.02)
            # simulate a leader restart: membership gone, worker still up
            leader.registry.mark_dead(worker.worker_id, "leader restarted")
            deadline = time.monotonic() + 5.0
            while not leader.registry.live() and time.monotonic() < deadline:
                time.sleep(0.02)
            live = [h.worker_id for h in leader.registry.live()]
            assert live == [worker.worker_id]
            # the rejoin is the worker's second admission
            assert leader.registry.registrations == 2


def _wait_until(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.02)


def test_leader_admits_by_heartbeat_and_has_no_register_route():
    from repro.cluster.protocol import post_json
    from repro.service.wire import NotFoundError

    with ClusterLeader(lease_s=7.0) as leader:
        register = {"schema_version": 1, "worker_id": "w-1", "url": "http://h:1"}
        with pytest.raises(NotFoundError) as exc:
            post_json(leader.url + "/v1/cluster/register", register)
        assert (exc.value.status, exc.value.code) == (404, "not_found")
        assert leader.registry.live() == []
        # the heartbeat is the one membership message
        answer = post_json(
            leader.url + "/v1/cluster/heartbeat", heartbeat_doc("w-1", "http://h:1", 4)
        )
        assert answer == {"schema_version": 1, "lease_s": 7.0}
        assert [(h.worker_id, h.queue_depth) for h in leader.registry.live()] == [("w-1", 4)]


def test_worker_heartbeats_never_render_stats():
    """A beat reads the scheduler's queue depth, never its ``/v1/stats``
    document (on a worker with a state dir that render scans the corpus)."""
    with ClusterLeader() as leader:
        worker = ClusterWorker(leader.url, heartbeat_s=0.05)
        renders = []
        render = worker.scheduler.stats
        worker.scheduler.stats = lambda: renders.append(1) or render()
        with worker:
            _wait_until(lambda: leader.registry.get(worker.worker_id).heartbeats >= 5)
        assert renders == []


def test_worker_drain_keeps_pins_and_refuses_new_fingerprints(spec_a, spec_b, small_g):
    with ClusterLeader() as leader:
        with (
            ClusterWorker(leader.url, heartbeat_s=0.1) as w1,
            ClusterWorker(leader.url, heartbeat_s=0.1) as w2,
        ):
            with ServiceClient(leader.url, timeout_s=60.0) as client:
                client.extract(JobRequest(spec_a, columns=(0, 1)))
                owner_id = leader.router.pins()[spec_a.fingerprint]
                owner, other = (w1, w2) if owner_id == w1.worker_id else (w2, w1)
                owner.drain()
                _wait_until(lambda: leader.registry.get(owner.worker_id).draining)
                # a new fingerprint goes to the host that is not draining...
                client.extract(JobRequest(spec_b, columns=(0,)))
                assert leader.router.pins()[spec_b.fingerprint] == other.worker_id
                # ...while the draining owner keeps serving its pinned one
                solved = owner.scheduler.attributed_solves
                block = client.extract(JobRequest(spec_a, columns=(2, 3)))
            assert np.abs(block - small_g[:, [2, 3]]).max() <= 1e-10 * np.abs(small_g).max()
            assert owner.scheduler.attributed_solves == solved + 2
            assert leader.router.info()["reroutes"] == 0
            other.drain()
            _wait_until(lambda: all(h.draining for h in leader.registry.live()))
            with pytest.raises(NoWorkersError):
                leader.router.route("f" * 32)


# ------------------------------------------------------------ client retries
def test_client_honors_retry_after_on_429(spec_a):
    from repro.service import AsyncExtractionServer

    scheduler = Scheduler(n_workers=1, autostart=False, max_queue_depth=1)
    with AsyncExtractionServer(scheduler=scheduler) as server:
        filler = scheduler.submit(JobRequest(spec_a, columns=(0,)))
        # no retries: the saturated queue is a typed 429 immediately
        with ServiceClient(server.url) as impatient:
            with pytest.raises(QueueSaturatedError):
                impatient.submit(JobRequest(spec_a, columns=(1,)))

        drained = threading.Timer(0.3, scheduler.step)
        drained.start()
        try:
            with ServiceClient(server.url, retries=5, retry_cap_s=0.2) as patient:
                job_id = patient.submit(JobRequest(spec_a, columns=(1,)))
            assert job_id
        finally:
            drained.join()
        scheduler.step()
        assert scheduler.result(filler, wait_s=5.0).status == "done"


def test_worker_cli_accepts_only_one_worker(capsys):
    from repro.cluster.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["worker", "--leader", "http://127.0.0.1:9", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_client_rejects_negative_retries():
    with pytest.raises(ValueError):
        ServiceClient("http://127.0.0.1:1", retries=-1)


# ------------------------------------------------- store fingerprint ledger
def test_result_store_fingerprints_ledger(spec_a, spec_b):
    store = ResultStore()
    store.put(spec_a.fingerprint, 0, np.zeros(9))
    store.put(spec_a.fingerprint, 1, np.zeros(9))
    store.put(spec_b.fingerprint, 0, np.zeros(9))
    ledger = store.fingerprints()
    assert ledger[spec_a.fingerprint]["columns"] == 2
    assert ledger[spec_b.fingerprint]["columns"] == 1
    assert ledger[spec_a.fingerprint]["bytes"] == 2 * 9 * 8
    info = store.info()
    assert [e["columns"] for e in info["fingerprints"]] == [2, 1]  # by bytes desc
    assert info["fingerprints"][0]["digest"] == spec_a.fingerprint


def test_stats_expose_per_fingerprint_bytes(spec_a):
    from repro.service import AsyncExtractionServer

    with AsyncExtractionServer(n_workers=1) as server:
        with ServiceClient(server.url) as client:
            client.extract(JobRequest(spec_a, columns=(0, 1)))
            stats = client.stats()
    entries = stats["result_store"]["fingerprints"]
    assert entries == [
        {
            "digest": spec_a.fingerprint,
            "columns": 2,
            "bytes": 2 * 9 * 8,
        }
    ]
