"""Helpers shared by the workloads: percentiles, memory, counters, results."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field

import numpy as np

def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (0.0 for an empty list)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def cache_counters() -> dict:
    """Process-wide factor-cache counters (hits, misses, dense factor builds)."""
    from repro.substrate.factor_cache import factor_cache_info

    return factor_counters(factor_cache_info())


def factor_counters(info: dict) -> dict:
    """Hit/miss/build counters out of a ``factor_cache_info()`` document."""
    from repro.substrate.bem.solver import BEM_FACTOR_KIND

    kind = info.get("by_kind", {}).get(BEM_FACTOR_KIND, {})
    return {
        "hits": int(info["hits"]),
        "misses": int(info["misses"]),
        # every miss of the dense-factor kind is followed by one build
        "factor_builds": int(kind.get("misses", 0)),
    }


def reset_process_caches() -> None:
    """Drop the process-wide factor cache (factors and eigenvalue tables)."""
    from repro.substrate.factor_cache import factor_cache

    factor_cache().clear()


def delta(after: dict, before: dict) -> dict:
    """Key-wise ``after - before`` over the numeric entries of two dicts."""
    return {
        key: after[key] - before.get(key, 0)
        for key in after
        if isinstance(after[key], (int, float)) and not isinstance(after[key], bool)
    }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: end-to-end metrics, name -> value (units come from BENCHMARK.json)
    end_to_end: dict = field(default_factory=dict)
    #: per-layer metrics measured in this run, name -> value
    per_layer: dict = field(default_factory=dict)
    #: further named figures printed for the reader, name -> (value, unit)
    details: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: descriptions of failed output checks (empty when every check passed)
    errors: list = field(default_factory=list)
    #: wall time of the timed phase
    wall_s: float = 0.0

    @property
    def correct(self) -> bool:
        return not self.errors

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)
