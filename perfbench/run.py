#!/usr/bin/env python3
"""The repository benchmark: one seeded workload run per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload extract-paper --seed 1 --seconds 20 --trace 0

Workloads: ``extract-paper``, ``serve-cold``, ``serve-warm``,
``cluster-warm`` (see ``perfbench/METRICS.md``).  The run prints a table of
named figures with units, a stamp of the host and library versions, and as
its last line one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the workload twice, untraced then traced, reports the
per-layer metrics and writes the traced run's spans to
``.perfbench_out/``.  The exit code is 0 only when every output check
passed and no request failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import signal
import sys
from pathlib import Path

WORKLOADS = ("extract-paper", "serve-cold", "serve-warm", "cluster-warm")
#: BLAS/OpenMP thread variables capped at the CPU count before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
OUTPUT_DIR = ".perfbench_out"


def cap_threads() -> None:
    limit = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)


def stamp() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(name: str, seed: int, seconds: float, tracer=None):
    if name == "extract-paper":
        import extract_paper

        return extract_paper.run(seed, seconds, tracer)
    import serving

    return serving.run(name, seed, seconds, tracer)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still unwinds, so it stops the worker process it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cap_threads()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {root / 'src'}", file=sys.stderr)
        return 2
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from common import peak_rss_mb
    from spans import Tracer

    if args.trace:
        baseline = run_workload(args.workload, args.seed, args.seconds)
        tracer = Tracer()
        outcome = run_workload(args.workload, args.seed, args.seconds, tracer)
        outcome.per_layer["tracing_overhead_s"] = (
            outcome.end_to_end["latency_p50_s"] - baseline.end_to_end["latency_p50_s"]
        )
        outcome.attempted += baseline.attempted
        outcome.failed += baseline.failed
        outcome.errors += baseline.errors
        measured, wanted = outcome.per_layer, manifest["per_layer"]
    else:
        outcome = run_workload(args.workload, args.seed, args.seconds)
        outcome.end_to_end["peak_rss_mb"] = peak_rss_mb()
        measured, wanted = outcome.end_to_end, manifest["end_to_end"]

    metrics = {}
    for entry in wanted:
        # span-derived metrics are always measured (spans.layer_metrics); only
        # counters of a component the workload never starts, such as the
        # scheduler on extract-paper or the leader on serve-warm, read 0 here
        value = measured.get(entry["name"], 0.0)
        if not math.isfinite(value):
            outcome.errors.append(f"metric {entry['name']} is not finite ({value})")
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    info = stamp()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  timed wall {outcome.wall_s:.3f} s")
    for name, (value, unit) in outcome.details.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print("  stamp " + json.dumps(info, sort_keys=True))
    for error in outcome.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if args.trace:
        out_dir = root / OUTPUT_DIR
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "stamp": info,
                    "metrics": metrics,
                    "spans": [dataclasses.asdict(span) for span in tracer.spans],
                }
            )
        )
        print(f"  spans written to {path.relative_to(root)} ({len(tracer.spans)} spans)")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.correct and outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
