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

The paper-table benches (Tables 2.1, 3.1, 4.1, 4.2) also write their rows as
``benchmarks/results/table_*.json`` and compare them with the committed
``benchmarks/golden/table_*.json`` (:func:`check_golden`).
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
GOLDEN_DIR = Path(__file__).parent / "golden"
REPO_ROOT = Path(__file__).parent.parent

#: the paper's reference scales swept when no env override is given
REFERENCE_SIZES = (16, 32)
#: relative tolerance of a golden's errors and sparsity factors (counts match exactly)
GOLDEN_RTOL = 1e-6


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


def report_record(label: str, report) -> dict:
    """One sparsification row as JSON: counts as integers, ratios at full precision."""
    n = int(report.n_contacts)
    return {
        "label": label,
        "n": n,
        "solves": int(report.n_solves),
        # each sparsity factor is n^2 / nnz, so rounding recovers the count
        "nnz_gw": round(n * n / report.sparsity_factor),
        "nnz_q": round(n * n / report.q_sparsity_factor),
        "sparsity_factor": float(report.sparsity_factor),
        "q_sparsity_factor": float(report.q_sparsity_factor),
        "max_relative_error": float(report.max_relative_error),
        "fraction_above_10pct": float(report.fraction_above_10pct),
    }


def check_golden(name: str, rows: list[dict]) -> None:
    """Write ``rows`` to ``results/<name>.json`` and assert they equal the golden.

    Integers and strings must match exactly, floats within ``GOLDEN_RTOL``.
    Runs with ``REPRO_BENCH_NSIDE`` set write ``<name>_smoke.json`` and read
    no golden: the goldens hold the default scale.  A golden is regenerated
    by copying a default-scale ``results/<name>.json`` over it.
    """
    smoke = "REPRO_BENCH_NSIDE" in os.environ
    RESULTS_DIR.mkdir(exist_ok=True)
    text = json.dumps(rows, indent=2) + "\n"
    (RESULTS_DIR / f"{name}{'_smoke' if smoke else ''}.json").write_text(text)
    if smoke:
        return
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert len(rows) == len(golden), f"{name}: {len(rows)} rows, golden has {len(golden)}"
    mismatches = []
    for want, got in zip(golden, rows):
        assert set(got) == set(want), f"{name}: row keys {sorted(got)}, golden {sorted(want)}"
        for key, value in want.items():
            if isinstance(value, float):
                same = math.isclose(got[key], value, rel_tol=GOLDEN_RTOL, abs_tol=0.0)
            else:
                same = type(got[key]) is type(value) and got[key] == value
            if not same:
                mismatches.append(f"{want['label']}: {key} = {got[key]!r}, golden {value!r}")
    assert not mismatches, f"{name} differs from its golden:\n" + "\n".join(mismatches)
