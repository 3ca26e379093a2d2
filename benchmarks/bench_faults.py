"""Chaos suite: the extraction service under deterministically injected faults.

The service's fault-tolerance claims (scheduler retry with backoff,
priority-aware load shedding) are only trustworthy if the failures they
guard against can be produced on demand.  This benchmark drives
:func:`repro.experiments.run_faults_experiment`: one overlapping
multi-client workload runs fault-free (the accuracy and attribution
reference), then again under two :mod:`repro.faults` plans — a transient
engine-build failure, and a saturated bounded queue behind the real HTTP
server (plus a dropped dispatch cycle).  It emits a machine-readable
``BENCH_faults.json`` (results dir + repo root).

Hard gates (every scale, including the CI smoke run):

* **factor retry** — the transient build failure is absorbed by the retry
  policy within ``max_attempts`` and at least one retry was recorded;
* **attribution invariance** — every arm charges exactly one black-box
  solve per distinct union column: retries and store re-checks must never
  double-count (nor skip) an attributed solve;
* **overload** — exactly the two lowest-priority queued jobs are shed, the
  over-limit submission is refused with HTTP 429 (+ Retry-After), both
  high-priority jobs and every surviving job complete at 1e-10, and an
  injected dropped dispatch cycle leaves the queue intact.

Run directly (``REPRO_BENCH_NSIDE=8`` for a CI smoke run)::

    PYTHONPATH=src python benchmarks/bench_faults.py

or through pytest like the other benchmarks.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

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

from repro.experiments import run_faults_experiment

#: agreement bound: fault recovery may never change the answer
AGREEMENT_RTOL = 1e-10
#: clients in the concurrent workload (every arm)
N_CLIENTS = 4
#: scheduler retry budget for the transient-failure arm
MAX_ATTEMPTS = 3


def run(sizes: list[int]) -> list[dict]:
    results = [
        run_faults_experiment(n_side=s, n_clients=N_CLIENTS, max_attempts=MAX_ATTEMPTS)
        for s in sizes
    ]
    payload = {
        "benchmark": "faults",
        "description": "extraction service under injected faults "
        f"({N_CLIENTS} concurrent clients on a shared substrate): transient "
        "engine-build failure + retry/backoff, bounded-queue load shedding "
        "with HTTP 429, dropped dispatch cycle",
        "n_clients": N_CLIENTS,
        "max_attempts": MAX_ATTEMPTS,
        "cpu_count": int(os.cpu_count() or 1),
        "results": results,
    }
    lines = [
        "Fault-tolerant extraction service: chaos suite",
        f"{'n_side':>6s} {'union':>5s} {'arm':>12s} {'status':>26s} "
        f"{'solves':>6s} {'max rel diff':>13s}",
    ]
    for r in results:
        for arm in ("baseline", "factor_retry"):
            a = r[arm]
            lines.append(
                f"{r['n_side']:>6d} {r['union_columns']:>5d} {arm:>12s} "
                f"{','.join(a['status']):>26s} {a['attributed_solves']:>6d} "
                f"{a.get('max_abs_diff_rel', 0.0):>12.2e}"
            )
        retry, over = r["factor_retry"], r["overload"]
        lines.append(
            f"{r['n_side']:>6d}    retry: {retry['retries']} "
            f"retried, attempts={max(retry['attempts'])} | overload: "
            f"{over['shed']} shed + {over['submits_rejected']} rejected "
            f"(429={over['rejected_over_http']}), diff={over['max_abs_diff_rel']:.2e}"
        )
    emit_benchmark("BENCH_faults", payload, "bench_faults", lines)
    return results


def check(result: dict) -> list[str]:
    """Gate one size's record; returns failure messages."""
    failures = []
    where = f"at n_side={result['n_side']}"
    union = result["union_columns"]
    baseline = result["baseline"]
    if any(status != "done" for status in baseline["status"]):
        failures.append(f"baseline jobs ended {baseline['status']} {where}")

    # every arm's attribution is exact: one solve per distinct union column,
    # no matter what was retried or re-read from the store
    for arm in ("baseline", "factor_retry"):
        solves = result[arm]["attributed_solves"]
        if solves != union:
            failures.append(
                f"{arm} attributed {solves} solves for a {union}-column "
                f"union {where}"
            )

    retry = result["factor_retry"]
    if any(status != "done" for status in retry["status"]):
        failures.append(f"factor-retry arm lost jobs: {retry['status']} {where}")
    if retry["retries"] < 1:
        failures.append(
            f"transient factor failure was never retried "
            f"(retries={retry['retries']}) {where}"
        )
    if max(retry["attempts"]) > result["max_attempts"]:
        failures.append(
            f"factor-retry arm took {max(retry['attempts'])} attempts "
            f"(budget {result['max_attempts']}) {where}"
        )
    if retry["max_abs_diff_rel"] > AGREEMENT_RTOL:
        failures.append(
            f"factor-retry results disagree ({retry['max_abs_diff_rel']:.2e} rel) "
            f"{where}"
        )

    over = result["overload"]
    # exactly the two lowest-priority jobs are displaced — the youngest two
    # of the priority-0 queue — and both high-priority jobs complete
    if over["low_status"] != ["done", "done", "shed", "shed"]:
        failures.append(
            f"overload shed the wrong jobs: low={over['low_status']} {where}"
        )
    if any(status != "done" for status in over["high_status"]):
        failures.append(
            f"high-priority jobs did not complete: {over['high_status']} {where}"
        )
    if over["shed"] != 2 or over["submits_rejected"] != 1:
        failures.append(
            f"overload counters off (shed={over['shed']}, "
            f"rejected={over['submits_rejected']}; expected 2/1) {where}"
        )
    if not over["rejected_over_http"]:
        failures.append(f"over-limit submission was not refused with 429 {where}")
    if over["served_during_drop"] != 0 or over["queue_depth_after_drop"] == 0:
        failures.append(
            f"dropped dispatch cycle did not leave the queue intact "
            f"(served={over['served_during_drop']}, "
            f"depth={over['queue_depth_after_drop']}) {where}"
        )
    if over["max_abs_diff_rel"] > AGREEMENT_RTOL:
        failures.append(
            f"overload survivors disagree ({over['max_abs_diff_rel']:.2e} rel) "
            f"{where}"
        )
    return failures


def test_bench_faults():
    for result in run(default_sizes()):
        failures = check(result)
        assert not failures, "; ".join(failures)


if __name__ == "__main__":
    gate_main(run(default_sizes()), check)
