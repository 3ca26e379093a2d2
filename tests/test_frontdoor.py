"""Asyncio front door: /v1 routes, NDJSON streaming, pair queries, envelopes.

The load-bearing assertions: streamed columns reach the client *before
their job completes* (all ``columns`` events of a coalesced group precede
every ``done`` event of that group), concurrent streaming clients are
served from one event loop, concurrent pair queries coalesce into one
scheduler batch, the pickle-era routes are gone, every error body is the
one envelope with a pinned status and code, and every request — however
malformed — gets an answer.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.service import (
    AsyncExtractionServer,
    JobRequest,
    JobState,
    QueueSaturatedError,
    Scheduler,
    ServiceClient,
    UnknownJobError,
)
from repro.service.wire import request_to_wire
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


@pytest.fixture(scope="module")
def dense_spec(small_g_module, small_layout_module):
    return SolverSpec.dense(small_g_module, small_layout_module)


def get_json(url: str, expect_status: int | None = None):
    """Raw GET: (status, parsed body, headers) without the typed client."""
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        body = json.loads(exc.read() or b"{}")
        if expect_status is not None:
            assert exc.code == expect_status
        return exc.code, body, exc.headers


# --------------------------------------------------------------- happy path
def test_async_end_to_end_matches_reference(bem_spec, small_g_module):
    with AsyncExtractionServer(n_workers=1) as server:
        with ServiceClient(server.url, timeout_s=60.0) as client:
            assert client.healthz()["ok"] is True
            block = client.extract(
                JobRequest(bem_spec, columns=(0, 2, 5)), timeout_s=60.0
            )
            scale = np.abs(small_g_module).max()
            # 1e-8 against the *symmetrized* dense reference (same bound the
            # scheduler tests use); exact 1e-10 decoded-vs-original agreement
            # is pinned in test_wire.py
            assert np.abs(block - small_g_module[:, [0, 2, 5]]).max() / scale < 1e-8
            assert client.stats()["schema_version"] == 1


def test_snapshot_schema_version_and_wire_arrays(dense_spec):
    with AsyncExtractionServer(n_workers=1) as server:
        with ServiceClient(server.url, timeout_s=30.0) as client:
            job_id = client.submit(JobRequest(dense_spec, columns=(1,)))
            snapshot = client.wait(job_id, timeout_s=30.0)
            assert snapshot["schema_version"] == 1
            assert snapshot["status"] == JobState.DONE
            assert isinstance(snapshot["result"], np.ndarray)
            assert snapshot["columns"] == [1]


# ---------------------------------------------------------------- streaming
def test_streamed_columns_arrive_before_job_completion(dense_spec, small_g_module):
    """Two same-substrate requests coalesce into one solve; every streamed
    ``columns`` event lands before either job's ``done`` event — a client
    sees its columns while the jobs are still RUNNING."""
    scheduler = Scheduler(n_workers=1, autostart=False)
    try:
        with AsyncExtractionServer(scheduler=scheduler) as server:
            client = ServiceClient(server.url, timeout_s=30.0)
            requests = [
                JobRequest(dense_spec, columns=(0, 1)),
                JobRequest(dense_spec, columns=(2, 3)),
            ]
            events: list[dict] = []
            consumed = threading.Event()

            def consume() -> None:
                events.extend(client.stream(requests, timeout_s=30.0))
                consumed.set()

            thread = threading.Thread(target=consume)
            thread.start()
            # both submits land before any solving: the drain is manual
            deadline = threading.Event()
            for _ in range(200):
                if scheduler.queue_depth == 2:
                    break
                deadline.wait(0.05)
            assert scheduler.queue_depth == 2
            served = scheduler.step()
            assert served == 2
            assert consumed.wait(timeout=30.0)
            thread.join(timeout=10.0)

            kinds = [event["event"] for event in events]
            assert kinds[0] == "submitted" and kinds[1] == "submitted"
            assert kinds[-1] == "end"
            column_positions = [i for i, k in enumerate(kinds) if k == "columns"]
            done_positions = [i for i, k in enumerate(kinds) if k == "done"]
            assert len(done_positions) == 2
            assert column_positions, "no columns were streamed"
            # the acceptance criterion: columns precede every completion
            assert max(column_positions) < min(done_positions)
            # streamed blocks are the exact solved columns
            for event in events:
                if event["event"] == "columns":
                    expected = small_g_module[:, list(event["columns"])]
                    np.testing.assert_allclose(event["block"], expected, rtol=1e-12)
                if event["event"] == "done":
                    assert event["status"] == JobState.DONE
                    assert event["snapshot"]["schema_version"] == 1
    finally:
        scheduler.close()


def test_store_hits_stream_before_any_solve(dense_spec):
    with AsyncExtractionServer(n_workers=1) as server:
        with ServiceClient(server.url, timeout_s=30.0) as client:
            client.extract(JobRequest(dense_spec, columns=(0, 1)), timeout_s=30.0)
            events = list(
                client.stream(JobRequest(dense_spec, columns=(0, 1)), timeout_s=30.0)
            )
            sources = [e["source"] for e in events if e["event"] == "columns"]
            assert sources == ["store"]  # already-paid-for columns, zero solves


def test_concurrent_streaming_clients(dense_spec, small_g_module):
    """Several clients stream at once from the one event loop; each sees its
    own columns and completion."""
    with AsyncExtractionServer(n_workers=1, coalesce_window_s=0.02) as server:
        column_sets = [(0, 1), (2, 3), (4, 5), (1, 2)]
        results: dict[int, list] = {}

        def run(i: int) -> None:
            with ServiceClient(server.url, timeout_s=60.0) as client:
                results[i] = list(
                    client.stream(
                        JobRequest(dense_spec, columns=column_sets[i]),
                        timeout_s=60.0,
                    )
                )

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert sorted(results) == [0, 1, 2, 3]
        for i, events in results.items():
            kinds = [e["event"] for e in events]
            assert "done" in kinds and kinds[-1] == "end"
            streamed = {
                c
                for e in events
                if e["event"] == "columns"
                for c in e["columns"]
            }
            assert streamed == set(column_sets[i])
        stats = ServiceClient(server.url).stats()
        assert stats["frontdoor"]["streams_opened"] == 4
        assert stats["frontdoor"]["stream_columns"] == sum(
            len(cols) for cols in column_sets
        )


def test_stream_reports_bad_request_inline(dense_spec):
    with AsyncExtractionServer(n_workers=1) as server:
        with ServiceClient(server.url, timeout_s=30.0) as client:
            good = JobRequest(dense_spec, columns=(0,))
            docs = [
                {"schema_version": 1, "spec": None},  # malformed
            ]
            # hand-build the body so one request of the stream is broken
            from repro.service.wire import request_to_wire

            body = json.dumps(
                {"requests": [request_to_wire(good)] + docs}
            ).encode()
            req = urllib.request.Request(
                server.url + "/v1/stream",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=30.0) as response:
                events = [json.loads(line) for line in response if line.strip()]
            by_kind = {}
            for e in events:
                by_kind.setdefault(e["event"], []).append(e)
            assert len(by_kind["error"]) == 1
            assert by_kind["error"][0]["error"]["code"] == "bad_request"
            assert len(by_kind["done"]) == 1  # the good request still completed


# ------------------------------------------------------------- pair queries
def test_concurrent_pair_queries_coalesce_in_the_scheduler(dense_spec, small_g_module):
    """Concurrent /v1/pairs queries over one fingerprint are separate jobs
    that one drain cycle serves as one coalesced batch, and every caller
    gets exactly its own values."""
    queries = [
        [(0, 1)],
        [(1, 2), (2, 3)],
        [(0, 1), (3, 4)],
        [(5, 6)],
        [(2, 3)],
        [(4, 5)],
    ]
    scheduler = Scheduler(autostart=False)
    try:
        with AsyncExtractionServer(scheduler=scheduler) as server:
            answers: dict[int, np.ndarray] = {}

            def run(i: int) -> None:
                with ServiceClient(server.url, timeout_s=60.0) as client:
                    answers[i] = client.pairs(dense_spec, queries[i], timeout_s=60.0)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(queries))]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 30.0
            while scheduler.queue_depth < len(queries) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert scheduler.queue_depth == len(queries)
            assert scheduler.step() == len(queries)
            for t in threads:
                t.join(timeout=60.0)
            for i, pairs in enumerate(queries):
                expected = [small_g_module[a, b] for a, b in pairs]
                np.testing.assert_allclose(answers[i], expected, rtol=1e-12)
            stats = scheduler.stats()
            assert stats["coalescing"]["batches"] == 1
            assert stats["coalescing"]["batch_jobs"] == len(queries)
            frontdoor = stats["frontdoor"]
            assert frontdoor["microbatch_queries"] == len(queries)
            assert frontdoor["microbatch_submits"] == len(queries)
    finally:
        scheduler.close()


def test_pairs_endpoint_validates_documents(dense_spec):
    with AsyncExtractionServer(n_workers=1) as server:
        from repro.service.wire import spec_to_wire

        body = json.dumps({"spec": spec_to_wire(dense_spec), "pairs": []}).encode()
        req = urllib.request.Request(
            server.url + "/v1/pairs",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10.0)
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["code"] == "bad_request"


# ------------------------------------------------------------ error envelope
def _answer(method: str, url: str, data: bytes | None = None):
    """Raw request: (status, parsed body, Retry-After header or None)."""
    headers = {"Content-Type": "application/json"} if data is not None else {}
    request = urllib.request.Request(url, data=data, method=method, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, json.loads(response.read()), response.headers.get(
                "Retry-After"
            )
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers.get("Retry-After")


def _expect_envelope(status, code, method, url, data=None) -> None:
    """One answer is the error envelope with this status, code and hint:
    a ``Retry-After`` header and ``retry_after`` on a 429, neither otherwise."""
    got, body, retry_after = _answer(method, url, data)
    assert (got, body["error"]["code"]) == (status, code), body
    assert set(body) == {"error"}
    assert set(body["error"]) == {"code", "message", "retry_after"}
    if status == 429:
        assert int(retry_after) >= 1 and body["error"]["retry_after"] > 0
    else:
        assert retry_after is None and body["error"]["retry_after"] is None


def test_error_envelope_conformance(dense_spec):
    """Every error the front door answers carries the one envelope, and its
    status, code and ``Retry-After`` are pinned request by request."""

    def submit_doc(column: int) -> bytes:
        return json.dumps(
            request_to_wire(JobRequest(dense_spec, columns=(column,)))
        ).encode()

    scheduler = Scheduler(
        n_workers=1, autostart=False, max_queue_depth=1, max_jobs_retained=1
    )
    try:
        with AsyncExtractionServer(scheduler=scheduler) as server:
            url = server.url
            client = ServiceClient(url, timeout_s=10.0)
            # 400 bad_request: a body that is not JSON, a bad request
            # document, a non-numeric wait_s
            _expect_envelope(400, "bad_request", "POST", url + "/v1/jobs", b"{not json")
            bad_doc = json.dumps({"schema_version": 1, "spec": "not a spec"}).encode()
            _expect_envelope(400, "bad_request", "POST", url + "/v1/jobs", bad_doc)
            _expect_envelope(
                400, "bad_request", "GET", url + "/v1/jobs/job-000001?wait_s=abc"
            )
            # 404: an unknown job (typed via the client too) and an unknown path
            _expect_envelope(404, "unknown_job", "GET", url + "/v1/jobs/job-999999")
            with pytest.raises(UnknownJobError):
                client.result("job-999999")
            _expect_envelope(404, "not_found", "GET", url + "/v1/nope")
            # 405 method_not_allowed on known paths
            _expect_envelope(405, "method_not_allowed", "GET", url + "/v1/jobs")
            _expect_envelope(405, "method_not_allowed", "DELETE", url + "/v1/stats")
            # 429 queue_saturated: typed via the client, raw on the wire
            first = client.submit(JobRequest(dense_spec, columns=(0,)))
            with pytest.raises(QueueSaturatedError) as info:
                client.submit(JobRequest(dense_spec, columns=(1,)))
            assert info.value.retry_after_s > 0
            _expect_envelope(429, "queue_saturated", "POST", url + "/v1/jobs", submit_doc(2))
            # 410 job_expired: retention keeps one finished job, so the
            # second one's completion drops the first
            scheduler.step()
            client.submit(JobRequest(dense_spec, columns=(1,)))
            scheduler.step()
            _expect_envelope(410, "job_expired", "GET", url + f"/v1/jobs/{first}")
            # 503 unavailable: a closed scheduler cannot take the job
            scheduler.close()
            _expect_envelope(503, "unavailable", "POST", url + "/v1/jobs", submit_doc(3))
    finally:
        scheduler.close()
    # 401 unauthorized without the bearer token; the health probe stays open
    with AsyncExtractionServer(n_workers=1, auth_token="s3cret") as server:
        _expect_envelope(401, "unauthorized", "GET", server.url + "/v1/stats")
        status, body, _ = _answer("GET", server.url + "/v1/healthz")
        assert status == 200 and body["ok"] is True


def _raw_answer(url: str, head: bytes) -> tuple[int, dict]:
    """Send raw request bytes, half-close, read the whole answer within a timeout."""
    host, port = url.removeprefix("http://").rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10.0) as sock:
        sock.sendall(head)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    status_line, _, rest = data.partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2])


def test_every_request_gets_an_answer():
    """Malformed heads, a short body, a non-ASCII token and a raising route
    are answered with the envelope instead of a dropped connection; a
    worker RPC that raises is a typed 500, never a transport error."""
    from repro.cluster.protocol import post_json
    from repro.service import ServiceError

    def boom(request):
        raise ValueError("handler bug")

    server = AsyncExtractionServer(n_workers=1, auth_token="s3cret")
    server.add_json_route("POST", "/v1/boom", boom)
    with server:
        for head, status, code in (
            (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400, "bad_request"),
            (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400, "bad_request"),
            (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}", 400, "bad_request"),
            (
                b"GET /v1/stats HTTP/1.1\r\nAuthorization: Bearer s\xe9cret\r\n\r\n",
                401,
                "unauthorized",
            ),
        ):
            got, body = _raw_answer(server.url, head)
            assert (got, body["error"]["code"]) == (status, code)
        with pytest.raises(ServiceError) as info:
            post_json(server.url + "/v1/boom", {}, auth_token="s3cret")
        assert not isinstance(info.value, OSError)
        assert (info.value.status, info.value.code) == (500, "internal")
        assert "ValueError: handler bug" in str(info.value)


def test_bad_json_body_is_a_bad_request_envelope(dense_spec):
    with AsyncExtractionServer(n_workers=1) as server:
        req = urllib.request.Request(
            server.url + "/v1/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10.0)
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["code"] == "bad_request"


# --------------------------------------------------- retired pickle-era routes
@pytest.mark.parametrize(
    ("method", "path"),
    [("POST", "/submit"), ("GET", "/result"), ("GET", "/stats"), ("GET", "/healthz")],
)
def test_retired_routes_answer_not_found(method, path):
    with AsyncExtractionServer(n_workers=1) as server:
        req = urllib.request.Request(
            server.url + path,
            data=b"{}" if method == "POST" else None,
            method=method,
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10.0)
        assert err.value.code == 404
        assert json.loads(err.value.read())["error"]["code"] == "not_found"


def test_legacy_pickle_endpoint_is_gone_by_default(tripwire_pickle):
    """A pickle-era ``/submit`` body is answered 404 and never deserialised."""
    blob, sentinel = tripwire_pickle
    with AsyncExtractionServer(n_workers=1) as server:
        req = urllib.request.Request(
            server.url + "/submit",
            data=json.dumps({"request_pickle": blob}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10.0)
        assert err.value.code == 404
        assert json.loads(err.value.read())["error"]["code"] == "not_found"
        assert ServiceClient(server.url).stats()["jobs"]["submitted"] == 0
    assert not sentinel.exists()


# ------------------------------------------------------------------- client
def test_client_context_manager_lifecycle(dense_spec):
    with AsyncExtractionServer(n_workers=1) as server:
        client = ServiceClient(server.url, timeout_s=10.0)
        with client:
            assert client.healthz()["ok"] is True
        with pytest.raises(RuntimeError, match="closed"):
            client.submit(JobRequest(dense_spec, columns=(0,)))
        with pytest.raises(RuntimeError, match="closed"):
            client.stream(JobRequest(dense_spec, columns=(0,)))


def test_cancel_via_client(dense_spec):
    scheduler = Scheduler(n_workers=1, autostart=False)
    try:
        with AsyncExtractionServer(scheduler=scheduler) as server:
            client = ServiceClient(server.url, timeout_s=10.0)
            job_id = client.submit(JobRequest(dense_spec, columns=(0,)))
            assert client.cancel(job_id) is True
            assert client.result(job_id)["status"] == JobState.CANCELLED
    finally:
        scheduler.close()
