"""Fault injection and the fault-tolerant service: faults and retry.

Covers the :mod:`repro.faults` harness itself (plans, budgets, activation
paths) and the scheduler's resilience layer (retry with backoff,
per-fingerprint circuit breaker, admission control with priority shedding +
HTTP 429, sqlite fault degradation, journal replay after a mid-batch crash).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import faults
from repro.faults import FaultPlan, FaultSpec, InjectedFault, fault_hook
from repro.service import (
    AsyncExtractionServer,
    JobRequest,
    JobState,
    QueueSaturatedError,
    RetryPolicy,
    Scheduler,
    ServiceClient,
)
from repro.service.scheduler import CircuitBreaker, _truncated_traceback
from repro.service.wire import request_to_wire
from repro.substrate.parallel import SolverSpec


@pytest.fixture(autouse=True)
def _clean_fault_state():
    """Every test leaves the process with fault injection disabled."""
    yield
    faults.clear_plan()


@pytest.fixture(scope="module")
def tiny_layout():
    from repro import regular_grid

    return regular_grid(n_side=4, size=64.0, fill=0.5)


@pytest.fixture(scope="module")
def dense_spec(tiny_layout):
    rng = np.random.default_rng(7)
    n = tiny_layout.n_contacts
    g = rng.normal(size=(n, n))
    g = g + g.T + 2.0 * n * np.eye(n)  # symmetric, well-conditioned
    return SolverSpec.dense(g, tiny_layout)


@pytest.fixture(scope="module")
def bem_spec(tiny_layout):
    from repro import SubstrateProfile

    profile = SubstrateProfile.two_layer_example(size=64.0, resistive_bottom=True)
    return SolverSpec.bem(tiny_layout, profile, max_panels=32, rtol=1e-10)


#: retry policy used throughout: instant retries keep the suite fast
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.0, cap_s=0.0, jitter=0.0)


# ------------------------------------------------------------ FaultSpec/Plan
def test_fault_spec_validates_action_exception_and_budgets():
    with pytest.raises(ValueError, match="action"):
        FaultSpec(site="x", action="explode")
    with pytest.raises(ValueError, match="exception"):
        FaultSpec(site="x", exception="SystemExit")  # not in the allowlist
    with pytest.raises(ValueError, match="times"):
        FaultSpec(site="x", times=-1)
    with pytest.raises(ValueError, match="after"):
        FaultSpec(site="x", after=-1)
    with pytest.raises(ValueError, match="unknown fault spec keys"):
        FaultSpec.from_dict({"site": "x", "actoin": "raise"})
    with pytest.raises(ValueError, match="site"):
        FaultSpec.from_dict({"action": "raise"})


def test_fault_plan_json_roundtrip_and_list_shorthand():
    plan = FaultPlan.from_json(
        {
            "faults": [
                {"site": "a.b", "action": "delay", "delay_s": 0.5, "times": 3},
                {"site": "c.d", "match": {"k": 1}},
            ],
        }
    )
    text = json.dumps({"faults": [dataclasses.asdict(spec) for spec in plan.specs]})
    again = FaultPlan.from_json(text)
    assert again.specs == plan.specs
    bare = FaultPlan.from_json('[{"site": "a.b", "action": "drop"}]')
    assert bare.specs[0].action == "drop"
    with pytest.raises(ValueError, match="object or list"):
        FaultPlan.from_json('"just a string"')


def test_fire_honours_times_after_and_match():
    plan = FaultPlan([FaultSpec(site="s", action="raise", after=1, times=2)])
    assert plan.fire("s", {}) is False  # skipped by after=1
    for _ in range(2):
        with pytest.raises(InjectedFault):
            plan.fire("s", {})
    assert plan.fire("s", {}) is False  # budget exhausted
    assert plan.counters()[0] == {"site": "s", "action": "raise", "hits": 4, "fires": 2}

    matched = FaultPlan([FaultSpec(site="s", match={"k": 1}, times=None)])
    assert matched.fire("s", {"k": 2}) is False
    assert matched.fire("other", {"k": 1}) is False
    with pytest.raises(InjectedFault):
        matched.fire("s", {"k": 1})


def test_named_exception_and_delay_and_drop():
    plan = FaultPlan(
        [
            FaultSpec(site="err", exception="OSError", message="disk gone"),
            FaultSpec(site="slow", action="delay", delay_s=0.05),
            FaultSpec(site="skip", action="drop"),
        ]
    )
    with pytest.raises(OSError, match="disk gone"):
        plan.fire("err", {})
    start = time.perf_counter()
    assert plan.fire("slow", {}) is False
    assert time.perf_counter() - start >= 0.04
    assert plan.fire("skip", {}) is True
    assert ("skip", "drop") in plan.fired


# ------------------------------------------------------------- activation
def test_fault_hook_is_inert_without_a_plan():
    faults.clear_plan()
    assert fault_hook("anything", key="value") is False


def test_install_and_inject_scoping():
    with faults.inject([{"site": "s", "action": "drop", "times": None}]) as plan:
        assert faults.active_plan() is plan
        assert fault_hook("s") is True
    assert faults.active_plan() is None
    assert fault_hook("s") is False


def test_env_var_activation_inline_and_file(tmp_path, monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, '[{"site": "s", "action": "drop"}]')
    plan = faults.reload_env_plan()
    assert plan is not None and fault_hook("s") is True

    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"faults": [{"site": "t", "action": "drop"}]}))
    monkeypatch.setenv(faults.ENV_VAR, f"@{path}")
    plan = faults.reload_env_plan()
    assert fault_hook("t") is True
    assert fault_hook("s") is False  # the old plan is gone

    monkeypatch.delenv(faults.ENV_VAR)
    assert faults.reload_env_plan() is None


def test_kill_action_exits_the_process():
    code = (
        "from repro.faults import fault_hook\n"
        "fault_hook('die')\n"
        "print('survived')\n"
    )
    env = dict(
        os.environ,
        REPRO_FAULTS='[{"site": "die", "action": "kill", "exit_code": 7}]',
        PYTHONPATH="src",
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 7
    assert "survived" not in proc.stdout


# --------------------------------------------------------- scheduler resilience
def test_retry_policy_backoff_and_validation():
    policy = RetryPolicy(max_attempts=4, base_delay_s=0.1, cap_s=0.3, jitter=0.0)
    assert policy.delay_s(1) == pytest.approx(0.1)
    assert policy.delay_s(2) == pytest.approx(0.2)
    assert policy.delay_s(3) == pytest.approx(0.3)  # capped
    assert policy.delay_s(4) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay_s=-1.0)


def test_circuit_breaker_state_machine():
    breaker = CircuitBreaker(failure_threshold=2, reset_s=1000.0)
    assert breaker.allow()
    assert breaker.record_failure() is False
    assert breaker.allow()
    assert breaker.record_failure() is True  # trips at the threshold
    assert breaker.state == "open"
    assert not breaker.allow()
    breaker.opened_at -= 2000.0  # reset window elapsed
    assert breaker.allow()  # half-open probe
    assert breaker.state == "half_open"
    assert breaker.record_failure() is True  # a failed probe re-opens
    breaker.opened_at -= 2000.0
    assert breaker.allow()


def test_transient_failure_is_retried_with_history(dense_spec):
    with Scheduler(n_workers=1, autostart=False, retry_policy=FAST_RETRY) as sched:
        with faults.inject(
            [{"site": "factor.build", "action": "raise", "times": 1}]
        ):
            job_id = sched.submit(JobRequest(dense_spec, columns=(0, 1)))
            sched.step()
        job = sched.result(job_id)
        assert job.status == JobState.DONE
        assert job.attempts == 2
        assert len(job.history) == 1
        assert "InjectedFault" in job.history[0]["error"]
        assert "factor.build" in job.history[0]["traceback"]
        assert sched.metrics.retries == 1
        assert sched.attributed_solves == 2  # retry did not double-count
        snapshot = sched.snapshot(job_id)
        assert snapshot["attempts"] == 2
        assert snapshot["history"][0]["attempt"] == 1


def test_exhausted_retries_fail_with_truncated_traceback(dense_spec):
    with Scheduler(
        n_workers=1,
        autostart=False,
        retry_policy=FAST_RETRY,
        breaker_failure_threshold=100,
    ) as sched:
        with faults.inject(
            [{"site": "factor.build", "action": "raise", "times": None}]
        ):
            job_id = sched.submit(JobRequest(dense_spec, columns=(0,)))
            sched.step()
        snapshot = sched.snapshot(job_id)
        assert snapshot["status"] == JobState.FAILED
        assert snapshot["attempts"] == FAST_RETRY.max_attempts
        assert len(snapshot["history"]) == FAST_RETRY.max_attempts
        assert snapshot["error"].startswith("InjectedFault")
        assert "fault_hook" in snapshot["error_traceback"]
        assert len(snapshot["error_traceback"]) < 2100
        assert sched.metrics.retries == FAST_RETRY.max_attempts - 1


def test_truncated_traceback_keeps_the_tail():
    try:
        raise RuntimeError("x" * 500)
    except RuntimeError:
        text = _truncated_traceback(limit=100)
    assert text.startswith("... (truncated)")
    assert len(text) <= 100 + len("... (truncated)\n")
    assert text.endswith("x" * 50)


def test_breaker_trips_fails_fast_and_half_open_recovers(dense_spec):
    with Scheduler(
        n_workers=1,
        autostart=False,
        retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
        breaker_failure_threshold=2,
        breaker_reset_s=1000.0,
    ) as sched:
        with faults.inject(
            [{"site": "factor.build", "action": "raise", "times": None}]
        ):
            first = sched.submit(JobRequest(dense_spec, columns=(0,)))
            sched.step()  # 2 failed attempts -> breaker trips at threshold 2
            assert sched.result(first).status == JobState.FAILED
            assert sched.metrics.breaker_open == 1
            # while open: the group fails instantly, without touching the pool
            second = sched.submit(JobRequest(dense_spec, columns=(0,)))
            sched.step()
        job = sched.result(second)
        assert job.status == JobState.FAILED
        assert "circuit breaker open" in job.error
        assert job.attempts == 0  # never attempted
        assert sched.health()["open_breakers"] == 1
        # reset window elapsed -> half-open probe; the fault is gone, so the
        # probe succeeds and the fingerprint's breaker is dropped
        fingerprint = JobRequest(dense_spec, columns=(0,)).fingerprint
        sched._breakers[fingerprint].opened_at -= 2000.0
        third = sched.submit(JobRequest(dense_spec, columns=(0,)))
        sched.step()
        assert sched.result(third).status == JobState.DONE
        assert fingerprint not in sched._breakers
        assert sched.health()["open_breakers"] == 0


def test_dispatch_cycle_drop_leaves_queue_intact(dense_spec):
    with Scheduler(n_workers=1, autostart=False, retry_policy=FAST_RETRY) as sched:
        job_id = sched.submit(JobRequest(dense_spec, columns=(0,)))
        with faults.inject([{"site": "dispatch.cycle", "action": "drop", "times": 1}]):
            assert sched.step() == 0
            assert sched.queue_depth == 1
            assert sched.step() == 1  # budget spent: the next cycle drains
        assert sched.result(job_id).status == JobState.DONE


# ------------------------------------------------------------ admission control
def test_queue_sheds_lowest_priority_and_rejects_underdogs(dense_spec):
    with Scheduler(
        n_workers=1, autostart=False, retry_policy=FAST_RETRY, max_queue_depth=2
    ) as sched:
        low_a = sched.submit(JobRequest(dense_spec, columns=(0,), priority=1))
        low_b = sched.submit(JobRequest(dense_spec, columns=(1,), priority=1))
        # a higher-priority submission displaces the YOUNGEST weakest job
        high = sched.submit(JobRequest(dense_spec, columns=(2,), priority=5))
        shed = sched.result(low_b)
        assert shed.status == JobState.SHED
        assert "shed" in shed.error
        # an equal-priority submission outranks nothing: refused with 429
        with pytest.raises(QueueSaturatedError) as info:
            sched.submit(JobRequest(dense_spec, columns=(3,), priority=1))
        assert info.value.retry_after_s > 0
        assert sched.metrics.jobs_shed == 1
        assert sched.metrics.submits_rejected == 1
        assert sched.stats()["faults"]["shed"] == 2
        sched.step()
        # the survivors are served, with their own columns
        g = dense_spec.options["matrix"]
        for job_id, column in ((low_a, 0), (high, 2)):
            job = sched.result(job_id)
            assert job.status == JobState.DONE
            np.testing.assert_array_equal(job.result[:, 0], g[:, column])


def test_shed_state_is_terminal_in_snapshot_and_metrics(dense_spec):
    with Scheduler(
        n_workers=1, autostart=False, retry_policy=FAST_RETRY, max_queue_depth=1
    ) as sched:
        victim = sched.submit(JobRequest(dense_spec, columns=(0,), priority=0))
        sched.submit(JobRequest(dense_spec, columns=(1,), priority=9))
        snapshot = sched.snapshot(victim)
        assert snapshot["status"] == "shed"
        assert snapshot["result"] is None
        jobs = sched.stats()["jobs"]
        assert jobs["shed"] == 1 and jobs["pending"] == 1


def test_http_429_with_retry_after_header(dense_spec):
    sched = Scheduler(
        n_workers=1, autostart=False, retry_policy=FAST_RETRY, max_queue_depth=1
    )
    try:
        with AsyncExtractionServer(scheduler=sched) as server:
            client = ServiceClient(server.url, timeout_s=30.0)
            kept = client.submit(JobRequest(dense_spec, columns=(0,), priority=0))
            with pytest.raises(QueueSaturatedError) as info:
                client.submit(JobRequest(dense_spec, columns=(1,), priority=0))
            assert info.value.retry_after_s > 0
            # raw HTTP: status 429 and a whole-seconds Retry-After header
            body = json.dumps(
                request_to_wire(JobRequest(dense_spec, columns=(2,), priority=0))
            ).encode()
            request = urllib.request.Request(
                server.url + "/v1/jobs",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as http_info:
                urllib.request.urlopen(request, timeout=30.0)
            http_info.value.close()
            assert http_info.value.code == 429
            assert int(http_info.value.headers["Retry-After"]) >= 1
            sched.step()
            assert client.result(kept, wait_s=30.0)["status"] == "done"
            assert client.healthz()["faults"]["submits_rejected"] == 2
    finally:
        sched.close()


# --------------------------------------------------------- durability under fault
def test_sqlite_write_fault_degrades_to_ram_only(dense_spec, tmp_path):
    with Scheduler(
        n_workers=1,
        autostart=False,
        retry_policy=FAST_RETRY,
        persistence=str(tmp_path / "state"),
    ) as sched:
        with faults.inject(
            [
                {
                    "site": "sqlite.write",
                    "action": "raise",
                    "exception": "OSError",
                    "times": None,
                }
            ]
        ):
            job_id = sched.submit(JobRequest(dense_spec, columns=(0, 1)))
            with pytest.warns(RuntimeWarning, match="backend save failed"):
                sched.step()
        job = sched.result(job_id)
        assert job.status == JobState.DONE  # availability beats durability
        assert sched.store.info()["backend_errors"] == 2


def test_journal_replays_job_accepted_before_midbatch_crash(dense_spec, tmp_path):
    state_dir = str(tmp_path / "state")
    # the dispatcher "crashes" after the journal accept fsync'd but before
    # any terminal mark: autostart=False means nothing serves the job, and
    # close() deliberately skips the terminal journal record for still-
    # pending work (same contract a kill -9 leaves behind)
    crashed = Scheduler(
        n_workers=1, autostart=False, retry_policy=FAST_RETRY, persistence=state_dir
    )
    job_id = crashed.submit(JobRequest(dense_spec, columns=(0, 2)))
    crashed.close()

    with Scheduler(n_workers=1, retry_policy=FAST_RETRY, persistence=state_dir) as sched:
        assert sched.metrics.jobs_replayed == 1
        job = sched.result(job_id, wait_s=60.0)  # original id, replayed once
        assert job.status == JobState.DONE
        assert job.result is not None and job.result.shape[1] == 2

    # the terminal journal record carries the attempt count of the replay
    lines = [
        json.loads(line)
        for line in (tmp_path / "state" / "journal.jsonl").read_text().splitlines()
    ]
    terminal = [doc for doc in lines if doc["event"] == "terminal"]
    assert terminal and terminal[-1]["job_id"] == job_id
    assert terminal[-1]["attempts"] == 1

    # the replay completed and was journaled terminal: a third start must
    # not replay it again
    with Scheduler(
        n_workers=1, autostart=False, retry_policy=FAST_RETRY, persistence=state_dir
    ) as sched:
        assert sched.metrics.jobs_replayed == 0
        with pytest.raises(KeyError):
            sched.result("job-999999")
