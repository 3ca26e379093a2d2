"""Deterministic fault injection for robustness tests.

The service's failure-domain hardening (scheduler retry with backoff,
circuit breakers, admission control, cluster failover) is only trustworthy
if every failure mode it claims to survive can be produced **on demand** —
in a unit test and against a live CLI service.  This module is that
trigger: production code calls :func:`fault_hook` at a handful of named
*sites*, and an active :class:`FaultPlan` decides whether that call raises,
kills the process, sleeps, or asks the caller to drop the operation.  With
no plan active the hook is a dict lookup away from free, and nothing in the
package behaves differently.

Sites wired in this package, and the tests that drive them:

====================  =========================================================
site                  where it fires
====================  =========================================================
``factor.build``      in the scheduler, before an extraction engine is built
                      for a fingerprint group (context: ``kind``) — ``raise``
                      exercises retry and the circuit breaker
                      (``tests/test_faults.py``, ``tests/test_oracle.py``)
``sqlite.write``      in :meth:`SqliteResultBackend.save
                      <repro.service.persistence.SqliteResultBackend.save>`
                      (context: ``op``) — ``delay`` or ``raise`` a durable
                      column write (``tests/test_faults.py``)
``dispatch.cycle``    at the top of :meth:`Scheduler.step
                      <repro.service.scheduler.Scheduler.step>` — ``drop``
                      skips the drain cycle, leaving the queue untouched
                      (``tests/test_faults.py``)
``rpc.send``          in the cluster leader, before each solve RPC to a
                      worker host (context: ``worker_id``) — ``raise`` here
                      simulates a network partition, exercising dead-host
                      marking and fingerprint re-routing
                      (``tests/test_cluster.py``)
``rpc.serve``         in a cluster worker, at the top of the
                      ``/v1/cluster/solve`` handler (context: ``worker_id``)
                      — ``drop`` answers the RPC with a 503, which the
                      leader retries without marking the host dead
                      (``tests/test_cluster.py``); ``kill`` makes the worker
                      die holding a routed group
``worker.heartbeat``  in a cluster worker's heartbeat thread, before each
                      report to the leader (context: ``worker_id``) —
                      ``drop`` suppresses heartbeats until the lease
                      expires, simulating a hung-but-listening host
                      (``tests/test_cluster.py``)
====================  =========================================================

A plan is a list of :class:`FaultSpec` entries.  Each names its site, an
``action`` (``raise`` / ``kill`` / ``delay`` / ``drop``), how often it fires
(``times`` per process, ``after`` skipped hits first) and an optional
``match`` dict that must equal the hook's context on the named keys.

Plans activate three ways, strongest first:

* :func:`install_plan` / the :func:`inject` context manager (tests);
* the ``REPRO_FAULTS`` environment variable — either inline JSON or
  ``@/path/to/plan.json`` — read lazily once per process (CLI:
  ``python -m repro.service --faults ...`` sets it for you);
* nothing: the default, with near-zero overhead.

JSON plan format (the env var, ``--faults``, and :meth:`FaultPlan.from_json`
all accept it)::

    {"faults": [{"site": "rpc.serve", "action": "kill",
                 "match": {"worker_id": "w1"}},
                {"site": "factor.build", "action": "raise",
                 "exception": "RuntimeError", "times": 1},
                {"site": "sqlite.write", "action": "delay", "delay_s": 0.01,
                 "times": 8}]}

A bare JSON list is accepted as shorthand for ``{"faults": [...]}``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "InjectedFault",
    "fault_hook",
    "active_plan",
    "install_plan",
    "clear_plan",
    "reload_env_plan",
    "inject",
]

#: environment variable naming the process-wide plan (JSON or ``@path``)
ENV_VAR = "REPRO_FAULTS"

#: actions a spec may take when it fires
ACTIONS = ("raise", "kill", "delay", "drop")


class InjectedFault(RuntimeError):
    """Default exception raised by ``action="raise"`` faults."""


#: exception types a JSON plan may name (a plan is data, not code — an
#: arbitrary-import lookup here would turn the env var into an exec vector)
_EXCEPTIONS: dict[str, type[BaseException]] = {
    "InjectedFault": InjectedFault,
    "RuntimeError": RuntimeError,
    "OSError": OSError,
    "IOError": OSError,
    "ValueError": ValueError,
    "MemoryError": MemoryError,
    "TimeoutError": TimeoutError,
    "ConnectionError": ConnectionError,
}


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault: where it fires, what it does, how often.

    Parameters
    ----------
    site:
        Hook site name (see the module table).
    action:
        ``"raise"`` the named ``exception``, ``"kill"`` the process with
        ``os._exit(exit_code)``, ``"delay"`` for ``delay_s`` seconds, or
        ``"drop"`` — return ``True`` from the hook so the call site skips
        the guarded operation.
    times:
        Firing budget *per process* (``None`` = unlimited).
    after:
        Matching hits skipped before the first firing (``after=2`` fires on
        the third hit).
    match:
        Context keys that must compare equal at the hook for the spec to
        match (e.g. ``{"worker_id": "w1"}`` targets one cluster host).
    """

    site: str
    action: str = "raise"
    times: int | None = 1
    after: int = 0
    exception: str = "InjectedFault"
    message: str = "injected fault"
    delay_s: float = 0.0
    exit_code: int = 1
    match: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"action must be one of {ACTIONS}, got {self.action!r}")
        if self.action == "raise" and self.exception not in _EXCEPTIONS:
            raise ValueError(
                f"exception must be one of {sorted(_EXCEPTIONS)}, got {self.exception!r}"
            )
        if self.times is not None and self.times < 0:
            raise ValueError("times must be >= 0 (or None for unlimited)")
        if self.after < 0:
            raise ValueError("after must be >= 0")

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown fault spec keys {sorted(unknown)}")
        if "site" not in doc:
            raise ValueError("fault spec requires a 'site'")
        return cls(**doc)


class FaultPlan:
    """An active set of :class:`FaultSpec` entries with per-process counters.

    Thread-safe: the scheduler dispatcher, its group threads and the HTTP
    handlers may all pass through hooks concurrently.  ``fired`` keeps an
    in-process log of every fault that actually fired (tests assert on it).
    """

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...]) -> None:
        self.specs = tuple(specs)
        self._lock = threading.Lock()
        self._hits = [0] * len(self.specs)  # reprolint: guarded-by(_lock)
        self._fires = [0] * len(self.specs)  # reprolint: guarded-by(_lock)
        # reprolint: guarded-by(_lock)
        self.fired: list[tuple[str, str]] = []

    # ------------------------------------------------------------------- (de)ser
    @classmethod
    def from_json(cls, text_or_doc: "str | dict | list") -> "FaultPlan":
        """Build a plan from JSON text, a parsed dict, or a bare spec list."""
        doc = text_or_doc
        if isinstance(doc, str):
            doc = json.loads(doc)
        if isinstance(doc, list):
            doc = {"faults": doc}
        if not isinstance(doc, dict):
            raise ValueError("fault plan must be a JSON object or list")
        specs = [FaultSpec.from_dict(dict(entry)) for entry in doc.get("faults", [])]
        return cls(specs)

    # ------------------------------------------------------------------ firing
    def counters(self) -> list[dict]:
        """Per-spec hit/fire counts (this process only; diagnostics/tests)."""
        with self._lock:
            return [
                {"site": spec.site, "action": spec.action, "hits": h, "fires": f}
                for spec, h, f in zip(self.specs, self._hits, self._fires, strict=True)
            ]

    def fire(self, site: str, context: dict[str, Any]) -> bool:
        """Evaluate every matching spec at ``site``; see :func:`fault_hook`."""
        drop = False
        for idx, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if any(context.get(key) != value for key, value in spec.match.items()):
                continue
            with self._lock:
                self._hits[idx] += 1
                if self._hits[idx] <= spec.after:
                    continue
                if spec.times is not None and self._fires[idx] >= spec.times:
                    continue
                self._fires[idx] += 1
                self.fired.append((site, spec.action))
            if spec.action == "delay":
                time.sleep(spec.delay_s)
            elif spec.action == "drop":
                drop = True
            elif spec.action == "kill":
                os._exit(spec.exit_code)
            else:  # "raise"
                raise _EXCEPTIONS[spec.exception](f"{spec.message} (site={site})")
        return drop


# ------------------------------------------------------------- process state
#: lazily resolved process-wide plan; guarded by _STATE_LOCK
_PLAN: FaultPlan | None = None
#: whether the environment has been consulted yet (once per process)
_ENV_LOADED = False
_STATE_LOCK = threading.Lock()


def _load_env_plan() -> FaultPlan | None:
    value = os.environ.get(ENV_VAR)
    if not value:
        return None
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            value = fh.read()
    return FaultPlan.from_json(value)


def active_plan() -> FaultPlan | None:
    """The plan in force for this process, if any (env read lazily, once)."""
    global _PLAN, _ENV_LOADED
    with _STATE_LOCK:
        if _PLAN is None and not _ENV_LOADED:
            _ENV_LOADED = True
            _PLAN = _load_env_plan()
        return _PLAN


def install_plan(plan: "FaultPlan | str | dict | list") -> FaultPlan:
    """Activate a plan for this process (overriding any env plan)."""
    global _PLAN, _ENV_LOADED
    if not isinstance(plan, FaultPlan):
        plan = FaultPlan.from_json(plan)
    with _STATE_LOCK:
        _PLAN = plan
        _ENV_LOADED = True
    return plan


def clear_plan() -> None:
    """Deactivate fault injection (the env var is *not* re-read afterwards)."""
    global _PLAN, _ENV_LOADED
    with _STATE_LOCK:
        _PLAN = None
        _ENV_LOADED = True


def reload_env_plan() -> FaultPlan | None:
    """Re-read ``REPRO_FAULTS`` now and activate the result.

    For callers that set the environment variable after import (the service
    CLI's ``--faults``): parses eagerly, so a malformed plan raises here
    instead of at the first hook.  An unset/empty variable deactivates.
    """
    global _PLAN, _ENV_LOADED
    plan = _load_env_plan()
    with _STATE_LOCK:
        _PLAN = plan
        _ENV_LOADED = True
    return plan


@contextmanager
def inject(plan: "FaultPlan | str | dict | list") -> Iterator[FaultPlan]:
    """Context manager: activate a plan, always deactivate on exit.

    The plan is this process's only: a separately started process (a cluster
    worker host) reads its own from the ``REPRO_FAULTS`` environment.
    """
    installed = install_plan(plan)
    try:
        yield installed
    finally:
        clear_plan()


def fault_hook(site: str, **context: Any) -> bool:
    """Fire any active faults registered at ``site``.

    Returns ``True`` when a ``drop`` fault fired (the caller should skip the
    guarded operation), ``False`` otherwise.  ``raise`` faults raise out of
    this call; ``kill`` faults never return; ``delay`` faults sleep first.
    With no active plan this is a lock-free constant-time no-op.
    """
    plan = _PLAN
    if plan is None:
        if _ENV_LOADED:
            return False
        plan = active_plan()
        if plan is None:
            return False
    return plan.fire(site, context)
