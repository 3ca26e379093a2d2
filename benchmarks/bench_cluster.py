"""Leader/worker cluster throughput: two worker processes against one.

One job per substrate fingerprint (four fingerprints: same grid, different
fill factors), each asking for the same column count, through a
:class:`~repro.cluster.ClusterLeader` fronting one and then two worker
*processes* (spawned via ``python -m repro.cluster worker``).  Gates: both
runs return the same blocks (1e-10), and on multi-CPU runners two workers
are **>= 1.5x** faster than one.  On a single-CPU runner the speedup gate
self-exempts: the two worker processes share one core, so the ratio
measures contention, not scaling.

The cluster's correctness (agreement with a single host, exactly-once
attribution, one factor build per fingerprint, SIGKILL failover) is tested
in ``tests/test_cluster.py::test_worker_processes_agree_and_survive_sigkill``
and ``tests/test_oracle.py``.

Emits a machine-readable ``BENCH_cluster.json`` under
``benchmarks/results/``.  Run directly (CI's ``perf`` job sets
``REPRO_BENCH_NSIDE=16``)::

    PYTHONPATH=src python benchmarks/bench_cluster.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

# usable both as a pytest module (benchmarks/conftest.py handles common) and
# as a standalone script
sys.path.insert(0, str(Path(__file__).parent))

from common import (
    REPO_ROOT,
    default_sizes,
    emit_benchmark,
    ensure_repro_importable,
    gate_main,
)

ensure_repro_importable()

from repro.cluster import ClusterLeader
from repro.geometry.layouts import regular_grid
from repro.service import JobRequest, ServiceClient
from repro.substrate.parallel import SolverSpec
from repro.substrate.profile import SubstrateProfile

AGREEMENT_RTOL = 1e-10
#: fill factors — four distinct substrates over one grid size
FILLS = (0.5, 0.45, 0.4, 0.35)
COLUMNS_PER_GROUP = 8
SPEEDUP_FLOOR = 1.5
WORKER_BOOT_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 600.0


# ------------------------------------------------------------------ plumbing
def _spawn_worker(leader_url: str, worker_id: str) -> subprocess.Popen:
    """Start one worker host as a real OS process on an ephemeral port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
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
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _await_live(leader: ClusterLeader, count: int) -> None:
    deadline = time.monotonic() + WORKER_BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        if len(leader.registry.live()) >= count:
            return
        time.sleep(0.05)
    raise RuntimeError(
        f"{count} workers did not register within {WORKER_BOOT_TIMEOUT_S:g}s"
    )


def _kill(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
    for proc in procs:
        proc.wait(timeout=30)


def _rel_diff(got: np.ndarray, reference: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(reference))), 1e-300)
    return float(np.max(np.abs(got - reference))) / scale


# ------------------------------------------------------------------ workload
def _specs(n_side: int) -> list[SolverSpec]:
    profile = SubstrateProfile.two_layer_example(size=128.0, resistive_bottom=True)
    return [
        SolverSpec.bem(
            regular_grid(n_side=n_side, size=128.0, fill=fill),
            profile,
            max_panels=256,
            rtol=1e-8,
        )
        for fill in FILLS
    ]


def _columns(spec: SolverSpec) -> tuple[int, ...]:
    n = spec.layout.n_contacts
    return tuple(range(0, n, max(1, n // COLUMNS_PER_GROUP)))[:COLUMNS_PER_GROUP]


def _run_through_leader(
    leader: ClusterLeader, specs: list[SolverSpec]
) -> tuple[float, list[np.ndarray]]:
    start = time.perf_counter()

    def one(spec: SolverSpec) -> np.ndarray:
        with ServiceClient(leader.url, timeout_s=JOB_TIMEOUT_S) as client:
            return client.extract(
                JobRequest(spec, columns=_columns(spec)), timeout_s=JOB_TIMEOUT_S
            )

    with ThreadPoolExecutor(max_workers=len(specs)) as pool:
        blocks = list(pool.map(one, specs))
    return time.perf_counter() - start, blocks


def _run_cluster_arm(
    specs: list[SolverSpec], n_workers: int
) -> tuple[float, list[np.ndarray]]:
    """One fresh leader + ``n_workers`` worker processes over the workload."""
    procs: list[subprocess.Popen] = []
    with ClusterLeader() as leader:
        try:
            for i in range(n_workers):
                procs.append(_spawn_worker(leader.url, f"bench-{n_workers}w-{i}"))
            _await_live(leader, n_workers)
            return _run_through_leader(leader, specs)
        finally:
            _kill(procs)


# ----------------------------------------------------------------------- run
def run_cluster_experiment(n_side: int) -> dict:
    specs = _specs(n_side)
    wall_1w, blocks_1w = _run_cluster_arm(specs, n_workers=1)
    wall_2w, blocks_2w = _run_cluster_arm(specs, n_workers=2)
    cpu_count = os.cpu_count() or 1
    return {
        "n_side": n_side,
        "n_contacts": specs[0].layout.n_contacts,
        "n_fingerprints": len(specs),
        "columns_total": sum(len(_columns(spec)) for spec in specs),
        "cpu_count": cpu_count,
        "cluster1_wall_s": wall_1w,
        "cluster2_wall_s": wall_2w,
        "speedup_2v1": wall_1w / wall_2w,
        # two workers on one core measure contention, not scaling — the
        # speedup gate is only armed on multi-CPU runners
        "speedup_gate_active": cpu_count >= 2,
        "max_abs_diff_rel": max(
            _rel_diff(got, ref) for got, ref in zip(blocks_2w, blocks_1w)
        ),
    }


def run(sizes: list[int]) -> list[dict]:
    results = [run_cluster_experiment(n_side) for n_side in sizes]
    payload = {"benchmark": "cluster", "results": results}
    lines = [
        "Leader/worker cluster: two worker processes against one",
        f"{'n_side':>6s} {'cols':>5s} {'1 wrk':>8s} {'2 wrk':>8s} "
        f"{'speedup':>7s} {'gate':>5s} {'max rel diff':>13s}",
    ]
    for r in results:
        lines.append(
            f"{r['n_side']:>6d} {r['columns_total']:>5d} "
            f"{r['cluster1_wall_s']:>7.3f}s {r['cluster2_wall_s']:>7.3f}s "
            f"{r['speedup_2v1']:>6.2f}x "
            f"{('on' if r['speedup_gate_active'] else 'off'):>5s} "
            f"{r['max_abs_diff_rel']:>12.2e}"
        )
    emit_benchmark("BENCH_cluster", payload, "bench_cluster", lines)
    return results


def check(result: dict) -> list[str]:
    """Gate one size's record; returns failure messages."""
    failures = []
    where = f"at n_side={result['n_side']}"
    if result["max_abs_diff_rel"] > AGREEMENT_RTOL:
        failures.append(
            f"two-worker blocks disagree with the one-worker blocks "
            f"({result['max_abs_diff_rel']:.2e} rel) {where}"
        )
    if (
        result["speedup_gate_active"]
        and result["speedup_2v1"] < SPEEDUP_FLOOR
    ):
        failures.append(
            f"two workers are {result['speedup_2v1']:.2f}x one worker "
            f"(floor {SPEEDUP_FLOOR}x on a {result['cpu_count']}-CPU runner) "
            f"{where}"
        )
    return failures


def test_bench_cluster():
    for result in run(default_sizes()):
        failures = check(result)
        assert not failures, "; ".join(failures)


if __name__ == "__main__":
    gate_main(run(default_sizes()), check)
