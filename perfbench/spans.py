"""In-memory span recorder for the benchmark's traced runs.

The program is never edited for tracing.  In a traced run the benchmark
replaces a few public functions and methods of the program with wrappers
that open a span around the original call (:meth:`Tracer.wrap`), runs the
workload, then puts the originals back (:meth:`Tracer.restore`).

A span records its name, start and end (``time.perf_counter``), the span
that was open on the same thread when it started (its parent), the request
id the calling thread was serving (``None`` on server threads) and a small
dict of attributes.  Spans stay in memory until the run ends.

A layer's *self time* is the duration of its spans minus the part of each
interval covered by child spans.  Time not covered by any layer span is the
run's unattributed time.

Every traced run wraps the same boundaries, :data:`LAYERS`, whatever the
workload, and reduces its spans with :func:`layer_metrics`.  A layer time
that reads 0 therefore means the wrapped calls never ran in this process.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field

#: name prefix of the serving workloads' client threads; wire calls made on
#: them are the client's own encoding, not the server's
CLIENT_PREFIX = "bench-client"


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: str | None
    thread: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Collects spans from every thread of the benchmark process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording
    def set_request(self, request_id: str | None) -> None:
        """Tag later spans opened on this thread with ``request_id``."""
        self._local.request_id = request_id

    def open(self, name: str) -> tuple:
        """Start a span on this thread; pass the token to :meth:`close`."""
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return (span_id, name, parent, time.perf_counter())

    def close(self, token: tuple, **attrs) -> None:
        end = time.perf_counter()
        span_id, name, parent, start = token
        self._local.stack.pop()
        span = Span(
            span_id,
            name,
            start,
            end,
            parent,
            getattr(self._local, "request_id", None),
            threading.current_thread().name,
            attrs,
        )
        with self._lock:
            self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, annotate=None, before=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a ``name`` span.

        ``before(args)`` runs ahead of the call; ``annotate(args, result,
        state)`` gets its return value as ``state`` and may return
        attributes for the span.  A ``None`` return from ``annotate`` drops
        the span (used to keep only calls that did the work the layer is
        named after).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            token = tracer.open(name)
            attrs: dict | None = {}
            try:
                result = original(*args, **kwargs)
                if annotate is not None:
                    attrs = annotate(args, result, state)
                return result
            finally:
                if attrs is None:
                    tracer._local.stack.pop()
                else:
                    tracer.close(token, **attrs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Sum of self time per span name."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        out: dict[str, float] = {}
        for span in self.spans:
            covered = union_length(
                [
                    (max(a, span.start), min(b, span.end))
                    for a, b in children.get(span.span_id, ())
                    if b > span.start and a < span.end
                ]
            )
            out[span.name] = out.get(span.name, 0.0) + span.duration - covered
        return out

    def covered(self, exclude: tuple[str, ...] = ()) -> float:
        """Wall time covered by at least one span not named in ``exclude``."""
        return union_length(
            [(s.start, s.end) for s in self.spans if s.name not in exclude]
        )


# ------------------------------------------------------------------- layers
def _columns(args, result, state):
    return {"columns": int(result.shape[1])}


def _server_side(args, result, state):
    return None if threading.current_thread().name.startswith(CLIENT_PREFIX) else {}


def _encoded(args, result, state):
    if _server_side(args, result, state) is None:
        return None
    return {"bytes": len(result["data"])}


def _engines_built(args):
    return args[0].info()["built"]


def _built(args, result, state):
    # ExtractorPool.get is a span only when the call built an engine
    return {} if _engines_built(args) > state else None


#: every layer boundary a traced run wraps:
#: (module, class or None for a module function, attribute, span name,
#: annotate, before) -- see :meth:`Tracer.wrap`
LAYERS = (
    ("repro.substrate.bem.solver", "EigenfunctionSolver", "solve_many",
     "substrate.solve", _columns, None),
    ("repro.geometry.quadtree", "SquareHierarchy", "__init__",
     "geometry.quadtree.build", None, None),
    ("repro.core.rowbasis", "MultilevelRowBasis", "build",
     "core.rowbasis.build", None, None),
    ("repro.core.rowbasis", "MultilevelRowBasis", "apply_block",
     "core.rowbasis.apply_block", None, None),
    ("repro.core.lowrank", "LowRankSparsifier", "to_sparsified",
     "core.lowrank.to_sparsified", None, None),
    ("repro.core.wavelet", "WaveletSparsifier", "__init__",
     "core.wavelet_basis.build", None, None),
    ("repro.core.wavelet", "WaveletSparsifier", "extract",
     "core.wavelet.extract", None, None),
    ("repro.core.sparsified", "SparsifiedConductance", "threshold_to_sparsity",
     "core.sparsified.threshold", None, None),
    ("repro.core.sparsified", "SparsifiedConductance", "matmat",
     "core.sparsified.matmat", None, None),
    ("repro.service.scheduler", "ExtractorPool", "get",
     "service.pool.engine_build", _built, _engines_built),
    ("repro.service.scheduler", "Scheduler", "step",
     "service.scheduler.drain", None, None),
    ("repro.service.result_store", "ResultStore", "get_many",
     "service.result_store.access", None, None),
    ("repro.service.result_store", "ResultStore", "put",
     "service.result_store.access", None, None),
    # the front door imports the wire helpers by name, so both copies are wrapped
    *(
        entry
        for module in ("repro.service.aserver", "repro.service.wire")
        for entry in (
            (module, None, "encode_array", "service.wire.encode", _encoded, None),
            (module, None, "snapshot_to_wire", "service.wire.encode", _server_side, None),
            (module, None, "request_from_wire", "service.wire.decode", _server_side, None),
        )
    ),
    ("repro.cluster.leader", None, "post_json", "cluster.rpc", None, None),
)


def instrument(tracer: Tracer) -> None:
    """Wrap every boundary of :data:`LAYERS`; ``tracer.restore()`` undoes it."""
    for module_name, owner, attr, name, annotate, before in LAYERS:
        module = importlib.import_module(module_name)
        target = getattr(module, owner) if owner else module
        tracer.wrap(target, attr, name, annotate=annotate, before=before)


def layer_metrics(tracer: Tracer, wall_s: float, top_level: tuple[str, ...]) -> dict:
    """The span-derived per-layer metrics of one traced timed phase.

    ``top_level`` names the benchmark's own spans around a whole flow or
    request; they are left out of the time attributed to layers.
    """
    self_s = tracer.self_times()

    def total(name: str) -> float:
        return sum(s.duration for s in tracer.named(name))

    solves = tracer.named("substrate.solve")
    rpcs = [s.duration for s in tracer.named("cluster.rpc")]
    return {
        "substrate.solve.calls": len(solves),
        "substrate.solve.columns": sum(s.attrs["columns"] for s in solves),
        "substrate.solve.busy_s": total("substrate.solve"),
        "geometry.quadtree.build_s": total("geometry.quadtree.build"),
        "core.rowbasis.build_self_s": self_s.get("core.rowbasis.build", 0.0),
        "core.rowbasis.apply_block.calls": len(tracer.named("core.rowbasis.apply_block")),
        "core.rowbasis.apply_block_s": total("core.rowbasis.apply_block"),
        "core.lowrank.to_sparsified_self_s": self_s.get("core.lowrank.to_sparsified", 0.0),
        "core.wavelet_basis.build_s": total("core.wavelet_basis.build"),
        "core.wavelet.extract_self_s": self_s.get("core.wavelet.extract", 0.0),
        "core.sparsified.threshold_s": total("core.sparsified.threshold"),
        "core.sparsified.matmat_s": total("core.sparsified.matmat"),
        "service.pool.engine_build_s": total("service.pool.engine_build"),
        "service.scheduler.drain_self_s": self_s.get("service.scheduler.drain", 0.0),
        "service.result_store.access_s": total("service.result_store.access"),
        "service.wire.encode_s": self_s.get("service.wire.encode", 0.0),
        "service.wire.decode_s": total("service.wire.decode"),
        "service.wire.bytes_out": sum(
            s.attrs.get("bytes", 0) for s in tracer.named("service.wire.encode")
        ),
        "cluster.rpc.rtt_p50_s": statistics.median(rpcs) if rpcs else 0.0,
        "unattributed_s": wall_s - tracer.covered(exclude=top_level),
    }
