"""Serving workloads: ``serve-cold``, ``serve-warm`` and ``cluster-warm``.

All three drive the ``/v1`` front door with closed-loop
:class:`~repro.service.ServiceClient` threads (one per CPU, at most two),
each walking its own request list generated from the seed alone.

* ``serve-cold`` — an in-process ``AsyncExtractionServer(n_workers=1)``.
  Every client visits a sequence of never-seen substrates: a regular 16x16
  grid whose fill factor, drawn from the seed, gives each visit its own
  fingerprint.  A visit is one 8-column ``/v1/jobs`` request, then two
  ``/v1/pairs`` queries on columns the job did not ask for.
* ``serve-warm`` — the same server with engines for four fixed substrates
  built during set-up and a result store budgeted at half the traffic's
  working set.  Clients send a seeded mix of wide column jobs, exact
  repeats, ``/v1/stream`` requests and ``/v1/pairs`` queries.  The mix's
  proportions are assumptions, not measurements: no traffic log of the
  service exists.  Each constant below says why its value was chosen.
* ``cluster-warm`` — the same traffic sent to an in-process
  ``ClusterLeader`` fronting one worker subprocess
  (``python -m repro.cluster worker --workers 1``) warmed the same way.

Every answer is compared with an isolated reference: ``extract_columns`` on
a private iterative solver of the same substrate run to ``rtol=1e-13``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    Outcome,
    delta,
    factor_counters,
    median,
    percentile,
    reset_process_caches,
)
from spans import CLIENT_PREFIX, instrument, layer_metrics

N_SIDE = 16
N_CONTACTS = N_SIDE * N_SIDE
SUBSTRATE_SIZE = 128.0
SOLVER_RTOL = 1e-8
#: tolerance of the isolated reference solves
REFERENCE_RTOL = 1e-13
#: every served value must match the reference to this (relative to max |G|)
AGREEMENT_RTOL = 1e-10
#: fill factors of the warm substrates (64x64 panel grid, 1024 contact panels)
WARM_FILLS = (0.52, 0.56, 0.60, 0.64)
#: result-store budget: below the warm working set (every column of every
#: warm substrate), as asked; half of it, so the traffic both hits and evicts
STORE_BYTES = len(WARM_FILLS) * N_CONTACTS * N_CONTACTS * 8 // 2
#: fill factors cold substrates are drawn from; all give a 128x128 panel grid
#: with 1024 contact panels, so every cold engine build costs the same
#: (fills 0.375-0.49 give 4096 contact panels and a 5x dearer build, with
#: too few visits per run for a steady median)
COLD_FILLS = np.round(np.linspace(0.26, 0.36, 1001), 6)
#: factor-cache budget of serve-cold: a few of its 8 MB dense factors.  The
#: default budget would keep every visited substrate's factor, so peak memory
#: would track how many visits fit in a run instead of what a visit costs.
COLD_FACTOR_CACHE_BYTES = 64 * 1024 * 1024
COLD_VISITS_PER_CLIENT = 100
COLD_JOB_COLUMNS = 8
COLD_PAIR_QUERIES = 2
PAIRS_PER_QUERY = 2
#: request kinds of one block of the warm plan, shuffled per block.  Equal
#: shares of the four kinds the issue names, since nothing measured favours
#: one of them.
WARM_BLOCK = ("job", "repeat", "stream", "pairs")
#: widths of warm jobs and streams: the issue's 32-128 columns, ten evenly
#: spaced values each used once in every ten requests, so every seed asks
#: for the same number of columns
WIDTHS = tuple(int(w) for w in np.linspace(32, 128, 10).round())
#: finished jobs' results a server retains for late pickup (the default
#: retains up to 256 MB, so memory would grow with throughput)
RETAINED_RESULT_BYTES = 16 * 1024 * 1024
WARM_BLOCKS = 400
SETUP_REPEATS = 3
REQUEST_TIMEOUT_S = 60.0
WORKER_BOOT_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Request:
    kind: str  # "job", "stream" or "pairs"
    substrate: int
    columns: tuple = ()
    pairs: tuple = ()

    @property
    def n_columns(self) -> int:
        """Columns delivered: requested columns, or one per pair."""
        return len(self.columns) if self.kind != "pairs" else len(self.pairs)


@dataclass
class Sample:
    request: Request
    latency_s: float
    ok: bool = True
    error: str | None = None
    #: server-side job timings from the job snapshot (jobs and streams)
    server_latency_s: float | None = None
    queue_wait_s: float | None = None
    run_s: float | None = None
    #: streams: time from the first columns event to the done event
    lead_s: float | None = None
    #: the answer, kept only until it is checked
    answer: object = field(default=None, repr=False)


# ---------------------------------------------------------------- substrates
def _spec(fill: float):
    from repro.geometry.layouts import regular_grid
    from repro.substrate.parallel import SolverSpec
    from repro.substrate.profile import SubstrateProfile

    profile = SubstrateProfile.two_layer_example(size=SUBSTRATE_SIZE, resistive_bottom=True)
    layout = regular_grid(n_side=N_SIDE, size=SUBSTRATE_SIZE, fill=float(fill))
    return SolverSpec.bem(layout, profile, max_panels=256, rtol=SOLVER_RTOL)


class Reference:
    """Isolated reference columns, solved once per (substrate, column)."""

    def __init__(self, specs: list) -> None:
        self.specs = specs
        self._columns: dict[tuple[int, int], np.ndarray] = {}
        self._scale: dict[int, float] = {}

    def fetch(self, substrate: int, columns) -> None:
        from repro.substrate.extraction import extract_columns

        missing = sorted({int(c) for c in columns} - {
            c for (s, c) in self._columns if s == substrate
        })
        if not missing:
            return
        solver = self.specs[substrate].build(rtol=REFERENCE_RTOL, max_direct_panels=0)
        block = extract_columns(solver, np.asarray(missing, dtype=int))
        for k, column in enumerate(missing):
            self._columns[(substrate, column)] = block[:, k]
        self._scale[substrate] = max(
            self._scale.get(substrate, 0.0), float(np.abs(block).max())
        )

    def block(self, substrate: int, columns) -> np.ndarray:
        return np.column_stack([self._columns[(substrate, int(c))] for c in columns])

    def error(self, request: Request, answer) -> float:
        """Relative disagreement of one answer with the reference."""
        scale = self._scale[request.substrate]
        if request.kind == "pairs":
            want = np.array(
                [self._columns[(request.substrate, j)][i] for i, j in request.pairs]
            )
        else:
            want = self.block(request.substrate, request.columns)
        got = np.asarray(answer, dtype=float)
        if got.shape != want.shape:
            return float("inf")
        return float(np.abs(got - want).max()) / scale


def _needed_columns(request: Request) -> list[int]:
    if request.kind == "pairs":
        return [j for _, j in request.pairs]
    return list(request.columns)


# --------------------------------------------------------------------- plans
def cold_plans(seed: int, n_clients: int) -> tuple[list, list[list[Request]]]:
    """Substrate specs and per-client request lists of ``serve-cold``."""
    rng = np.random.default_rng([seed, 1])
    fills = rng.choice(COLD_FILLS, size=n_clients * COLD_VISITS_PER_CLIENT, replace=False)
    specs = [_spec(fill) for fill in fills]
    plans: list[list[Request]] = [[] for _ in range(n_clients)]
    for substrate in range(len(specs)):
        cols = rng.choice(N_CONTACTS, size=COLD_JOB_COLUMNS, replace=False)
        rest = rng.permutation(np.setdiff1d(np.arange(N_CONTACTS), cols))
        plan = plans[substrate % n_clients]
        plan.append(Request("job", substrate, tuple(sorted(int(c) for c in cols))))
        for q in range(COLD_PAIR_QUERIES):
            js = rest[q * PAIRS_PER_QUERY:(q + 1) * PAIRS_PER_QUERY]
            pairs = tuple((int(rng.integers(N_CONTACTS)), int(j)) for j in js)
            plan.append(Request("pairs", substrate, pairs=pairs))
    return specs, plans


def zipf(n: int) -> np.ndarray:
    """Probabilities proportional to 1/rank over ``n`` ranks.

    Request popularity in caches is commonly modelled this way (Breslau et
    al., "Web caching and Zipf-like distributions", INFOCOM 1999).  The
    exponent 1 is that model's usual value, not a measurement of this
    service.
    """
    weights = 1.0 / np.arange(1, n + 1)
    return weights / weights.sum()


def stratified(rng, values, count: int):
    """``count`` values in shuffled rounds, each round using every value once.

    Every seed then draws each value equally often, so seeds differ in order
    but not in the amount of work.
    """
    rounds = -(-count // len(values))
    drawn = np.concatenate([rng.permutation(values) for _ in range(rounds)])
    return iter(int(v) for v in drawn[:count])


def warm_plans(seed: int, n_clients: int) -> list[list[Request]]:
    """Per-client request lists of ``serve-warm`` and ``cluster-warm``.

    Substrates and, within a substrate, columns follow Zipf popularity
    (:func:`zipf`).  Substrates come in stratified rounds of 25 requests
    shared 12:6:4:3, the smallest whole shares proportional to 1/rank.  The
    column ranking is a seeded order shared by all clients, so clients share
    hot columns.  A repeat re-sends one of the client's earlier jobs, chosen
    uniformly.  A pair query asks for ``PAIRS_PER_QUERY`` entries whose
    columns follow the same popularity.
    """
    shared = np.random.default_rng([seed, 2])
    orders = [shared.permutation(N_CONTACTS) for _ in WARM_FILLS]
    shares = np.rint(zipf(len(WARM_FILLS)) * 25).astype(int)
    substrate_round = np.repeat(np.arange(len(WARM_FILLS)), shares)
    column_p = zipf(N_CONTACTS)
    n_requests = WARM_BLOCKS * len(WARM_BLOCK)
    plans = []
    for client in range(n_clients):
        rng = np.random.default_rng([seed, 3, client])
        widths = stratified(rng, WIDTHS, n_requests)
        substrates = stratified(rng, substrate_round, n_requests)

        def columns(substrate: int, width: int) -> tuple:
            ranks = rng.choice(N_CONTACTS, size=width, replace=False, p=column_p)
            return tuple(sorted(int(c) for c in orders[substrate][ranks]))

        plan: list[Request] = []
        jobs: list[Request] = []
        for _ in range(WARM_BLOCKS):
            for kind in rng.permutation(WARM_BLOCK):
                substrate = next(substrates)
                if kind == "repeat" and jobs:
                    plan.append(jobs[int(rng.integers(len(jobs)))])
                elif kind in ("job", "repeat"):  # a repeat before any job is a job
                    jobs.append(Request("job", substrate, columns(substrate, next(widths))))
                    plan.append(jobs[-1])
                elif kind == "stream":
                    plan.append(
                        Request("stream", substrate, columns(substrate, next(widths)))
                    )
                else:
                    ranks = rng.choice(N_CONTACTS, size=PAIRS_PER_QUERY, p=column_p)
                    pairs = tuple(
                        (int(rng.integers(N_CONTACTS)), int(orders[substrate][r]))
                        for r in ranks
                    )
                    plan.append(Request("pairs", substrate, pairs=pairs))
        plans.append(plan)
    return plans


# ------------------------------------------------------------------- clients
def _snapshot_timings(sample: Sample, snapshot: dict) -> None:
    submitted, started, finished = (
        snapshot.get("submitted_at"),
        snapshot.get("started_at"),
        snapshot.get("finished_at"),
    )
    if None not in (submitted, started, finished):
        sample.server_latency_s = finished - submitted
        sample.queue_wait_s = started - submitted
        sample.run_s = finished - started


def execute(client, request: Request, spec) -> Sample:
    """Send one request and wait for its decoded answer."""
    from repro.service import JobRequest

    start = time.perf_counter()
    sample = Sample(request, 0.0)
    try:
        if request.kind == "job":
            job_id = client.submit(JobRequest(spec, columns=request.columns))
            snapshot = client.wait(job_id, timeout_s=REQUEST_TIMEOUT_S)
            sample.latency_s = time.perf_counter() - start
            if snapshot["status"] != "done":
                raise RuntimeError(f"job ended {snapshot['status']}: {snapshot.get('error')}")
            sample.answer = snapshot["result"]
            _snapshot_timings(sample, snapshot)
        elif request.kind == "stream":
            blocks: dict[int, np.ndarray] = {}
            first = done = None
            events = client.stream(
                JobRequest(spec, columns=request.columns), timeout_s=REQUEST_TIMEOUT_S
            )
            for event in events:
                kind = event["event"]
                if kind == "columns":
                    first = first if first is not None else time.perf_counter()
                    for column, values in zip(event["columns"], event["block"].T):
                        blocks[int(column)] = values
                elif kind == "done":
                    done = time.perf_counter()
                    if event["status"] != "done":
                        raise RuntimeError(f"stream job ended {event['status']}")
                    if event.get("snapshot"):
                        _snapshot_timings(sample, event["snapshot"])
                elif kind == "error":
                    raise RuntimeError(f"stream error: {event.get('error')}")
            sample.latency_s = time.perf_counter() - start
            if done is None or first is None:
                raise RuntimeError("stream ended without columns and a done event")
            sample.lead_s = done - first
            sample.answer = np.column_stack([blocks[c] for c in request.columns])
        else:
            sample.answer = client.pairs(spec, request.pairs, timeout_s=REQUEST_TIMEOUT_S)
            sample.latency_s = time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
        sample.latency_s = time.perf_counter() - start
        sample.ok = False
        sample.error = f"{type(exc).__name__}: {exc}"
    return sample


def drive(url: str, plans, specs, seconds: float, reference, tracer) -> tuple[list, float]:
    """Run every client's plan until the deadline; returns samples and wall time.

    With a ``reference`` each answer is checked as soon as it arrives (and
    dropped); without one the answers are kept for a later check.
    """
    from repro.service import ServiceClient

    samples: list[list[Sample]] = [[] for _ in plans]
    start = time.perf_counter()
    deadline = start + seconds

    def client_loop(index: int) -> None:
        with ServiceClient(url, timeout_s=REQUEST_TIMEOUT_S) as client:
            for number, request in enumerate(plans[index]):
                if time.perf_counter() >= deadline:
                    break
                token = None
                if tracer is not None:
                    tracer.set_request(f"c{index}-{number}")
                    token = tracer.open("client.request")
                sample = execute(client, request, specs[request.substrate])
                if tracer is not None:
                    tracer.close(token, kind=request.kind)
                if reference is not None and sample.ok:
                    err = reference.error(request, sample.answer)
                    if not err <= AGREEMENT_RTOL:
                        sample.ok = False
                        sample.error = f"answer off the reference by {err:.2e}"
                    sample.answer = None
                samples[index].append(sample)

    threads = [
        threading.Thread(
            target=client_loop, args=(i,), name=f"{CLIENT_PREFIX}-{i}", daemon=True
        )
        for i in range(len(plans))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return [s for per_client in samples for s in per_client], wall


# -------------------------------------------------------------------- stacks
class Stack:
    """The serving system under test: a server, or a leader plus a worker."""

    def __init__(self, cluster: bool, store_bytes: int | None) -> None:
        from repro.service import AsyncExtractionServer
        from repro.service.result_store import ResultStore

        self.cluster = cluster
        self.worker = None
        self.worker_url = None
        store = ResultStore(max_bytes=store_bytes) if store_bytes else None
        if cluster:
            from repro.cluster import ClusterLeader

            self.leader = ClusterLeader(
                store=store, max_result_bytes_retained=RETAINED_RESULT_BYTES
            )
            self.leader.start()
            self.scheduler = self.leader.scheduler
            self.url = self.leader.url
            try:
                self._spawn_worker(store_bytes)
            except BaseException:
                self.close()
                raise
        else:
            self.server = AsyncExtractionServer(
                n_workers=1,
                store=store,
                max_result_bytes_retained=RETAINED_RESULT_BYTES,
            ).start()
            self.scheduler = self.server.scheduler
            self.url = self.server.url

    def _spawn_worker(self, store_bytes: int | None) -> None:
        root = Path.cwd()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        command = [
            sys.executable, "-m", "repro.cluster", "worker",
            "--leader", self.leader.url,
            "--worker-id", "bench-worker",
            "--workers", "1",
            "--heartbeat", "0.5",
        ]
        if store_bytes:
            command += ["--store-bytes", str(store_bytes)]
        self.worker = subprocess.Popen(
            command, cwd=root, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + WORKER_BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            live = self.leader.registry.live()
            if live:
                self.worker_url = live[0].url
                return
            if self.worker.poll() is not None:
                raise RuntimeError(f"worker exited with code {self.worker.returncode}")
            time.sleep(0.02)
        raise RuntimeError(f"worker did not register within {WORKER_BOOT_TIMEOUT_S:g}s")

    def stats(self) -> dict:
        return self.scheduler.stats()

    def worker_stats(self) -> dict:
        from repro.service import ServiceClient

        with ServiceClient(self.worker_url, timeout_s=30.0) as client:
            return client.stats()

    def close(self) -> None:
        if self.cluster:
            self.leader.close()
            if self.worker is not None:
                if self.worker.poll() is None:
                    self.worker.terminate()
                try:
                    self.worker.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.worker.kill()
                    self.worker.wait(timeout=30)
        else:
            self.server.close()


def _counters(stats: dict) -> dict:
    """The timed-phase counters out of one ``/v1/stats`` document."""
    solve = stats["solve_stats"]
    store = stats["result_store"]
    out = {
        "attributed_solves": stats.get("attributed_solves", 0),
        "batches": stats["coalescing"]["batches"],
        "batch_jobs": stats["coalescing"]["batch_jobs"],
        "retries": stats["faults"]["retries"],
        "shed": stats["faults"]["shed"],
        "store_hits": store["hits"],
        "store_misses": store["misses"],
        "store_evictions": store["evictions"],
        "microbatch_queries": stats["frontdoor"]["microbatch_queries"],
        "microbatch_submits": stats["frontdoor"]["microbatch_submits"],
        "engines_built": stats["engines"]["built"],
        "iterations": solve["total_iterations"],
        "iterative_columns": solve["n_iterative_solves"],
        "direct_columns": solve["n_direct_solves"],
    }
    out.update(factor_counters(stats["factor_cache"]))
    cluster = stats.get("cluster")
    if cluster is not None:
        out["rpc_calls"] = cluster["rpc_calls"]
        out["rpc_failures"] = cluster["rpc_failures"]
        out["reroutes"] = cluster["router"]["reroutes"]
    return out


# ----------------------------------------------------------------------- run
def run(workload: str, seed: int, seconds: float, tracer=None) -> Outcome:
    from repro.service import JobRequest, ServiceClient
    from repro.substrate.factor_cache import set_factor_cache_budget

    out = Outcome()
    n_clients = min(2, len(os.sched_getaffinity(0)))
    cold = workload == "serve-cold"
    cluster = workload == "cluster-warm"
    warm_specs = [_spec(fill) for fill in WARM_FILLS]
    if cold:
        specs, plans = cold_plans(seed, n_clients)
        reference = Reference(specs)
        set_factor_cache_budget(COLD_FACTOR_CACHE_BYTES)
    else:
        specs = warm_specs
        plans = warm_plans(seed, n_clients)
        reference = Reference(specs)
        for substrate in range(len(specs)):
            reference.fetch(substrate, range(N_CONTACTS))

    # ---- set-up, repeated; the last stack serves the timed phase
    setups = []
    stack = None
    try:
        for _ in range(SETUP_REPEATS):
            if stack is not None:
                stack.close()
                stack = None
            reset_process_caches()
            start = time.perf_counter()
            stack = Stack(cluster, store_bytes=None if cold else STORE_BYTES)
            # cold: one canary request on a warm substrate (outside the cold
            # set) proves the front door serves; warm: one request per
            # substrate builds its engine
            with ServiceClient(stack.url, timeout_s=REQUEST_TIMEOUT_S) as client:
                for spec in warm_specs[:1] if cold else warm_specs:
                    client.extract(
                        JobRequest(spec, columns=tuple(range(COLD_JOB_COLUMNS))),
                        timeout_s=REQUEST_TIMEOUT_S,
                    )
            setups.append(time.perf_counter() - start)

        before = _counters(stack.stats())
        worker_before = _counters(stack.worker_stats()) if cluster else None
        if tracer is not None:
            instrument(tracer)
        try:
            samples, wall = drive(
                stack.url, plans, specs, seconds, None if cold else reference, tracer
            )
        finally:
            if tracer is not None:
                tracer.restore()
        after = _counters(stack.stats())
        counters = delta(after, before)
        worker_stats = stack.worker_stats() if cluster else None
        worker = delta(_counters(worker_stats), worker_before) if cluster else None
    finally:
        if stack is not None:
            stack.close()
    out.wall_s = wall

    # ---- deferred checks (serve-cold: references of the visited substrates)
    if cold:
        needed: dict[int, set] = {}
        for sample in samples:
            if sample.ok:
                needed.setdefault(sample.request.substrate, set()).update(
                    _needed_columns(sample.request)
                )
        for substrate, columns in needed.items():
            reference.fetch(substrate, columns)
        for sample in samples:
            if sample.ok:
                err = reference.error(sample.request, sample.answer)
                if not err <= AGREEMENT_RTOL:
                    sample.ok = False
                    sample.error = f"answer off the reference by {err:.2e}"
            sample.answer = None
    out.attempted = len(samples)
    failures = [s for s in samples if not s.ok]
    out.failed = len(failures)
    for sample in failures[:5]:
        out.errors.append(
            f"{sample.request.kind} on substrate {sample.request.substrate}: {sample.error}"
        )
    if len(failures) > 5:
        out.errors.append(f"... and {len(failures) - 5} more failed requests")
    if cluster:
        out.check(counters["reroutes"] == 0, f"{counters['reroutes']} cluster reroutes")

    # ---- end-to-end metrics
    # a failed request counts as having waited the whole timed phase
    latencies = [s.latency_s if s.ok else wall for s in samples]
    firsts = [
        s.latency_s if s.ok else wall for s in samples if s.request.kind == "job"
    ]
    delivered = sum(s.request.n_columns for s in samples if s.ok)
    solved = worker["attributed_solves"] if cluster else counters["attributed_solves"]
    out.end_to_end = {
        "setup_s": median(setups),
        "latency_p50_s": median(firsts if cold else latencies),
        "columns_per_s": delivered / wall,
    }
    out.details = {
        "solves_per_column": (solved / max(delivered, 1), "ratio"),
        "requests": (len(samples), "count"),
        "clients": (n_clients, "count"),
        "error_rate": (out.failed / max(out.attempted, 1), "ratio"),
    }
    if cold:
        out.details["first_result_s"] = (median(firsts), "s")
        out.details["visits"] = (len(firsts), "count")
    else:
        out.details["latency_p95_s"] = (percentile(latencies, 95), "s")
        out.details["samples_beyond_p95"] = (
            sum(1 for x in latencies if x > percentile(latencies, 95)),
            "count",
        )

    # ---- per-layer metrics
    engine_side = worker if cluster else counters
    queue_waits = [s.queue_wait_s for s in samples if s.queue_wait_s is not None]
    run_times = [s.run_s for s in samples if s.run_s is not None]
    overheads = [
        s.latency_s - s.server_latency_s
        for s in samples
        if s.ok and s.request.kind == "job" and s.server_latency_s is not None
    ]
    leads = [s.lead_s for s in samples if s.lead_s is not None]
    store_lookups = counters["store_hits"] + counters["store_misses"]
    layer = {
        "substrate.solve.iterations": engine_side["iterations"],
        "substrate.solve.iterative_columns": engine_side["iterative_columns"],
        "substrate.solve.direct_columns": engine_side["direct_columns"],
        "substrate.factor.builds": engine_side["factor_builds"],
        "substrate.factor_cache.hits": engine_side["hits"],
        "substrate.factor_cache.misses": engine_side["misses"],
        "service.pool.engine_builds": engine_side["engines_built"],
        "service.scheduler.queue_wait_p50_s": percentile(queue_waits, 50),
        "service.scheduler.queue_wait_p95_s": percentile(queue_waits, 95),
        "service.scheduler.run_p50_s": percentile(run_times, 50),
        "service.scheduler.batches": counters["batches"],
        "service.scheduler.jobs_per_batch": counters["batch_jobs"] / max(counters["batches"], 1),
        "service.scheduler.retries": counters["retries"],
        "service.scheduler.shed": counters["shed"],
        "service.result_store.hits": counters["store_hits"],
        "service.result_store.misses": counters["store_misses"],
        "service.result_store.evictions": counters["store_evictions"],
        "service.result_store.hit_ratio": counters["store_hits"] / max(store_lookups, 1),
        "service.frontdoor.overhead_p50_s": percentile(overheads, 50),
        "service.frontdoor.microbatch_ratio": (
            counters["microbatch_queries"] / counters["microbatch_submits"]
            if counters["microbatch_submits"]
            else 0.0
        ),
        "service.stream.first_column_lead_s": median(leads),
    }
    if cluster:
        job_p50 = worker_stats["latency_s"].get("p50") or 0.0
        layer.update(
            {
                "cluster.rpc.calls": counters["rpc_calls"],
                "cluster.rpc.failures": counters["rpc_failures"],
                "cluster.router.reroutes": counters["reroutes"],
                "cluster.worker.job_p50_s": job_p50,
            }
        )
    if tracer is not None:
        layer.update(layer_metrics(tracer, wall, top_level=("client.request",)))
        if cluster:
            # the leader solves nothing; the worker's columns come from its stats
            layer["substrate.solve.columns"] = worker["attributed_solves"]
            layer["cluster.rpc.overhead_p50_s"] = (
                layer["cluster.rpc.rtt_p50_s"] - layer["cluster.worker.job_p50_s"]
            )
    out.per_layer = layer
    return out
