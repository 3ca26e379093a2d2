"""Shared helpers for the benchmark harness.

Every paper benchmark regenerates one table or figure of the paper.  Results
are printed and also written to ``benchmarks/results/<name>.txt``.  The
problem scale defaults to 16 contacts per side (256 contacts); set
``REPRO_BENCH_NSIDE=32`` to run at the paper's scale.

``bench_cluster.py`` also writes a machine-readable record: reference runs
(no ``REPRO_BENCH_NSIDE``) sweep the paper pair {16, 32} and write the
tracked ``benchmarks/results/BENCH_cluster.json`` and ``bench_cluster.txt``;
env-overridden runs write gitignored ``*_smoke`` siblings so they can never
clobber the committed reference record.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

#: the paper's reference scales swept when no env override is given
REFERENCE_SIZES = (16, 32)


def ensure_repro_importable() -> None:
    """Put ``<repo>/src`` on ``sys.path`` (standalone benchmark scripts)."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def bench_n_side(default: int = 16) -> int:
    """Contacts per side used by the benchmarks (env: REPRO_BENCH_NSIDE)."""
    return int(os.environ.get("REPRO_BENCH_NSIDE", default))


def default_sizes(reference: tuple[int, ...] = REFERENCE_SIZES) -> list[int]:
    """n_side values to benchmark: env override or the paper pair {16, 32}."""
    env = os.environ.get("REPRO_BENCH_NSIDE")
    if env:
        return [int(env)]
    return list(reference)


def emit_benchmark(json_base: str, payload: dict, txt_base: str, lines: list[str]) -> None:
    """Write one perf benchmark's JSON + text artefacts.

    Reference runs write ``<json_base>.json`` and ``<txt_base>.txt`` under
    ``benchmarks/results/``; smoke runs write the gitignored ``*_smoke``
    siblings.
    """
    suffix = "_smoke" if "REPRO_BENCH_NSIDE" in os.environ else ""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (RESULTS_DIR / f"{json_base}{suffix}.json").write_text(text)
    print(text)
    write_result(txt_base + suffix, lines)


def gate_main(results: list[dict], check) -> None:
    """Standalone-script exit protocol: collect gate failures, exit non-zero."""
    failures: list[str] = []
    for result in results:
        failures.extend(check(result))
    if failures:
        raise SystemExit("\n".join(failures))


def write_result(name: str, lines: list[str]) -> str:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print("\n" + text)
    return text


def format_report_row(label: str, report) -> str:
    return (
        f"{label:<34s} n={report.n_contacts:5d}  sparsity={report.sparsity_factor:7.1f}  "
        f"Qsparsity={report.q_sparsity_factor:6.1f}  "
        f"maxrel={100 * report.max_relative_error:8.2f}%  "
        f">10%={100 * report.fraction_above_10pct:6.2f}%  "
        f"solves={report.n_solves:5d}  reduction={report.solve_reduction_factor:5.1f}x"
    )
