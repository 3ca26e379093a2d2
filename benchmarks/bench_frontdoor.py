"""Async front door: NDJSON streaming latency and HTTP micro-batching.

Two arms against one :class:`~repro.service.aserver.AsyncExtractionServer`
over a shared substrate:

* **streaming** — concurrent ``/v1/stream`` clients each ask for an
  overlapping column set; per stream we time the first ``columns`` event
  against the job's ``done`` event.  The whole point of the streaming wire
  is that columns land **as the coalesced group's solve finishes**, before
  job completion — the gate pins that ordering for every stream and
  records the lead time.
* **micro-batching** — concurrent ``/v1/pairs`` queries over the same
  fingerprint; the HTTP layer holds them for a short window and collapses
  them into fewer scheduler submits.  The gate pins
  ``microbatch_submits < microbatch_queries`` via the service counters.

Everything crosses the wire as the declarative ``/v1`` JSON schema.

Agreement gates: streamed blocks and micro-batched pair values must match
the service's own plain ``/v1/jobs`` submit-and-wait path to **1e-10**
(the front-door invariant — neither streaming nor batching may change the
answer the service gives).  An isolated single-process extraction is also
recorded and gated at 2x the solver's ``rtol`` — the service's warm
parallel engine and a cold local solver are distinct iterative solves, so
they agree to solver tolerance, not bit-exactly (that engine-level
agreement story lives in ``bench_service``).  Emits a machine-readable
``BENCH_frontdoor.json`` (results dir + repo root).

Run directly (``REPRO_BENCH_NSIDE=8`` for a CI smoke run)::

    PYTHONPATH=src python benchmarks/bench_frontdoor.py

or through pytest like the other benchmarks.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# usable both as a pytest module (benchmarks/conftest.py handles common) and
# as a standalone script for the CI smoke run
sys.path.insert(0, str(Path(__file__).parent))

from common import (
    default_sizes,
    emit_benchmark,
    ensure_repro_importable,
    gate_main,
)

ensure_repro_importable()

from repro.geometry.layouts import regular_grid
from repro.service import AsyncExtractionServer, JobRequest, ServiceClient
from repro.substrate.extraction import extract_columns
from repro.substrate.parallel import SolverSpec
from repro.substrate.profile import SubstrateProfile

#: solver tolerance of the benchmark substrate
SOLVER_RTOL = 1e-8
#: wire-fidelity bound: streaming/batching may never change the service's answer
AGREEMENT_RTOL = 1e-10
#: bound against an isolated single-process solve (two independent iterative
#: solves of the same system agree to solver tolerance, not bit-exactly)
ISOLATED_RTOL = 2 * SOLVER_RTOL
#: concurrent streaming clients
N_STREAMS = 4
#: columns per streaming client
COLUMNS_PER_STREAM = 4
#: concurrent /v1/pairs clients (each a 2-pair query, same fingerprint)
N_PAIR_CLIENTS = 8
#: window the micro-batcher holds pair queries (generous: CI boxes are slow)
PAIR_WINDOW_S = 0.25


def _stream_one(url: str, request: JobRequest) -> dict:
    """Consume one stream; returns timings, event order and column blocks."""
    start = time.perf_counter()
    first_columns_s = None
    done_s = None
    kinds: list[str] = []
    blocks: dict[int, np.ndarray] = {}
    with ServiceClient(url, timeout_s=600.0) as client:
        for event in client.stream(request, timeout_s=600.0):
            kinds.append(event["event"])
            if event["event"] == "columns":
                if first_columns_s is None:
                    first_columns_s = time.perf_counter() - start
                for j, column in zip(event["columns"], event["block"].T):
                    blocks[j] = column
            elif event["event"] == "done":
                done_s = time.perf_counter() - start
    return {
        "kinds": kinds,
        "first_columns_s": first_columns_s,
        "done_s": done_s,
        "blocks": blocks,
    }


def run_frontdoor_experiment(n_side: int, seed: int = 0) -> dict:
    layout = regular_grid(n_side=n_side, size=128.0, fill=0.5)
    profile = SubstrateProfile.two_layer_example(size=128.0, resistive_bottom=True)
    n = layout.n_contacts
    spec = SolverSpec.bem(layout, profile, max_panels=256, rtol=1e-8)

    # overlapping column sets drawn from one half of the contacts, so the
    # scheduler's cross-stream coalescing has real work to share
    rng = np.random.default_rng(seed)
    pool = np.sort(rng.choice(n, size=max(COLUMNS_PER_STREAM, n // 2), replace=False))
    stream_columns = [
        tuple(
            int(c)
            for c in np.sort(rng.choice(pool, size=COLUMNS_PER_STREAM, replace=False))
        )
        for _ in range(N_STREAMS)
    ]
    union = sorted({c for cols in stream_columns for c in cols})
    union_index = {c: k for k, c in enumerate(union)}

    # isolated single-process solve (solver-tolerance cross-check)
    isolated = extract_columns(spec.build(), np.asarray(union, dtype=int))
    scale = float(np.abs(isolated).max())

    pair_queries = [
        [(int(rng.integers(n)), int(rng.choice(union))) for _ in range(2)]
        for _ in range(N_PAIR_CLIENTS)
    ]

    with AsyncExtractionServer(
        coalesce_window_s=0.05,
        pair_window_s=PAIR_WINDOW_S,
        pair_max_batch=N_PAIR_CLIENTS,
    ) as server:
        # --- streaming arm --------------------------------------------------
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=N_STREAMS) as executor:
            streams = list(
                executor.map(
                    lambda cols: _stream_one(server.url, JobRequest(spec, columns=cols)),
                    stream_columns,
                )
            )
        stream_wall_s = time.perf_counter() - start

        # the service's own plain job path over the same union: the
        # wire-fidelity reference (served from the result store, so this is
        # exactly what a non-streaming /v1 client receives)
        with ServiceClient(server.url, timeout_s=600.0) as client:
            reference = client.extract(
                JobRequest(spec, columns=tuple(union)), timeout_s=600.0
            )

        stream_diff = 0.0
        leads = []
        ordered = True
        for cols, stream in zip(stream_columns, streams):
            kinds = stream["kinds"]
            has_columns = "columns" in kinds and "done" in kinds
            ordered = ordered and has_columns and (
                kinds.index("columns") < kinds.index("done")
            )
            if stream["first_columns_s"] is not None and stream["done_s"] is not None:
                leads.append(stream["done_s"] - stream["first_columns_s"])
            for j in cols:
                got = stream["blocks"].get(j)
                if got is None:
                    ordered = False
                    continue
                diff = np.abs(got - reference[:, union_index[j]]).max() / scale
                stream_diff = max(stream_diff, float(diff))
        isolated_diff = float(np.abs(reference - isolated).max() / scale)

        # --- micro-batching arm --------------------------------------------
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=N_PAIR_CLIENTS) as executor:

            def one_query(pairs):
                with ServiceClient(server.url, timeout_s=600.0) as client:
                    return client.pairs(spec, pairs, timeout_s=600.0)

            pair_values = list(executor.map(one_query, pair_queries))
        pairs_wall_s = time.perf_counter() - start

        pair_diff = 0.0
        for pairs, values in zip(pair_queries, pair_values):
            for (i, j), value in zip(pairs, values):
                diff = abs(value - reference[i, union_index[j]]) / scale
                pair_diff = max(pair_diff, float(diff))

        frontdoor = ServiceClient(server.url).stats()["frontdoor"]

    return {
        "n_side": int(n_side),
        "n_contacts": int(n),
        "n_streams": N_STREAMS,
        "columns_per_stream": COLUMNS_PER_STREAM,
        "union_columns": len(union),
        "cpu_count": int(os.cpu_count() or 1),
        "stream_wall_s": float(stream_wall_s),
        "first_column_before_done": bool(ordered),
        "first_column_lead_s": [float(lead) for lead in leads],
        "median_first_column_lead_s": float(np.median(leads)) if leads else None,
        "stream_max_abs_diff_rel": float(stream_diff),
        "isolated_max_abs_diff_rel": isolated_diff,
        "n_pair_clients": N_PAIR_CLIENTS,
        "pairs_wall_s": float(pairs_wall_s),
        "pairs_max_abs_diff_rel": float(pair_diff),
        "frontdoor": frontdoor,
    }


def run(sizes: list[int]) -> list[dict]:
    results = [run_frontdoor_experiment(n_side=s) for s in sizes]
    payload = {
        "benchmark": "frontdoor",
        "description": "asyncio /v1 front door: NDJSON streaming (columns "
        f"pushed before job completion, {N_STREAMS} concurrent clients) and "
        f"HTTP micro-batching of {N_PAIR_CLIENTS} concurrent pair queries "
        "over one fingerprint; pickle-free schema wire throughout",
        "results": results,
    }
    lines = [
        "Async front door: streaming + HTTP micro-batching",
        f"{'n_side':>6s} {'streams':>7s} {'union':>5s} {'stream':>8s} "
        f"{'lead':>7s} {'queries':>7s} {'submits':>7s} {'pairs':>8s} "
        f"{'max rel diff':>13s}",
    ]
    for r in results:
        lead = r["median_first_column_lead_s"]
        lines.append(
            f"{r['n_side']:>6d} {r['n_streams']:>7d} {r['union_columns']:>5d} "
            f"{r['stream_wall_s']:>7.3f}s "
            f"{(f'{lead:.3f}s' if lead is not None else 'n/a'):>7s} "
            f"{r['frontdoor']['microbatch_queries']:>7d} "
            f"{r['frontdoor']['microbatch_submits']:>7d} "
            f"{r['pairs_wall_s']:>7.3f}s "
            f"{max(r['stream_max_abs_diff_rel'], r['pairs_max_abs_diff_rel']):>12.2e}"
        )
    emit_benchmark("BENCH_frontdoor", payload, "bench_frontdoor", lines)
    return results


def check(result: dict) -> list[str]:
    """Gate one size's record; returns failure messages."""
    failures = []
    where = f"at n_side={result['n_side']}"
    frontdoor = result["frontdoor"]
    if not result["first_column_before_done"]:
        failures.append(
            f"a stream did not deliver its first columns before job "
            f"completion {where}"
        )
    if result["stream_max_abs_diff_rel"] > AGREEMENT_RTOL:
        failures.append(
            f"streamed columns disagree with the plain /v1 job path "
            f"({result['stream_max_abs_diff_rel']:.2e} rel) {where}"
        )
    if result["pairs_max_abs_diff_rel"] > AGREEMENT_RTOL:
        failures.append(
            f"micro-batched pair values disagree with the plain /v1 job path "
            f"({result['pairs_max_abs_diff_rel']:.2e} rel) {where}"
        )
    if result["isolated_max_abs_diff_rel"] > ISOLATED_RTOL:
        failures.append(
            f"service results drift beyond solver tolerance from an "
            f"isolated single-process solve "
            f"({result['isolated_max_abs_diff_rel']:.2e} rel) {where}"
        )
    if frontdoor["streams_opened"] != result["n_streams"]:
        failures.append(
            f"{frontdoor['streams_opened']} streams opened for "
            f"{result['n_streams']} clients {where}"
        )
    if frontdoor["microbatch_queries"] != result["n_pair_clients"]:
        failures.append(
            f"{frontdoor['microbatch_queries']} micro-batch queries counted "
            f"for {result['n_pair_clients']} clients {where}"
        )
    if not 1 <= frontdoor["microbatch_submits"] < frontdoor["microbatch_queries"]:
        failures.append(
            f"micro-batching did not coalesce: {frontdoor['microbatch_queries']} "
            f"queries became {frontdoor['microbatch_submits']} submits {where}"
        )
    return failures


def test_bench_frontdoor():
    for result in run(default_sizes()):
        failures = check(result)
        assert not failures, "; ".join(failures)


if __name__ == "__main__":
    gate_main(run(default_sizes()), check)
