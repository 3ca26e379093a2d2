"""Schema-first JSON wire protocol of the extraction service (``/v1/``).

Requests travel as a **declarative schema**: layout, profile, options and
the columns/pairs query are plain JSON data, numeric arrays are
base64-encoded float64 buffers with explicit dtype/shape, and the decoder
*constructs* the domain objects instead of trusting serialized code — no
pickle anywhere.  The round trip is exact — a decoded spec has the **same
:attr:`~repro.substrate.parallel.SolverSpec.fingerprint`** as the original,
so coalescing, the result corpus and the factor artifact store all keep
working unchanged across the wire boundary.  The same request documents
are what the job journal writes to disk
(:class:`~repro.service.persistence.JobJournal`).

Wire documents (all carry ``"schema_version"`` at the top level where they
stand alone):

========================  ===================================================
document                  shape
========================  ===================================================
value                     JSON scalar, list, dict — plus two tagged forms:
                          ``{"__wire__": "tuple", "items": [...]}`` (tuples
                          survive, ``repr``-identical for fingerprints) and
                          ``{"__wire__": "ndarray", "dtype", "shape",
                          "data"}`` (base64 of the C-order buffer)
layout                    ``{"size_x", "size_y", "contacts": [{"x", "y",
                          "width", "height", "name"}, ...]}``
profile                   ``null`` or ``{"size_x", "size_y", "layers":
                          [{"thickness", "conductivity"}, ...],
                          "grounded_backplane"}``
spec                      ``{"kind", "layout", "profile", "options"}``
request                   ``{"schema_version", "spec", "columns", "pairs",
                          "tolerance", "priority", "timeout_s"}``
error envelope            ``{"error": {"code", "message", "retry_after"}}``
========================  ===================================================

Exactness: JSON numbers round-trip Python floats bit-for-bit (``repr``
based), tuples are tagged so ``repr``-keyed fingerprint items cannot decay
into lists, and arrays travel as raw little-endian float64 bytes — no
formatting, no precision loss anywhere on the wire.

The module also owns the protocol-level pieces around the documents: the
one snapshot encoder, the single error envelope (every 4xx/5xx body
conforms) and the **error table** behind it.  Each envelope code appears in
that table once, with its HTTP status, the exceptions a server answers
with it and the exception a client raises for it; :func:`error_answer`
reads it on the server, :func:`raise_for_envelope` (and
:func:`raise_for_http_error`) on the client.  It holds no route logic:
the routes live in :mod:`~repro.service.aserver`.
"""

from __future__ import annotations

import base64
import json
from typing import Any, NoReturn
from urllib.error import HTTPError

import numpy as np

from ..geometry.contact import Contact, ContactLayout
from ..substrate.parallel import SPEC_KINDS, SolverSpec
from ..substrate.profile import Layer, SubstrateProfile
from .jobs import SCHEMA_VERSION, JobExpiredError, JobRequest, QueueSaturatedError

__all__ = [
    "SCHEMA_VERSION",
    "WireFormatError",
    "ServiceError",
    "BadRequestError",
    "UnknownJobError",
    "ServiceUnavailableError",
    "UnauthorizedError",
    "NotFoundError",
    "MethodNotAllowedError",
    "encode_value",
    "decode_value",
    "encode_array",
    "decode_array",
    "layout_to_wire",
    "layout_from_wire",
    "profile_to_wire",
    "profile_from_wire",
    "spec_to_wire",
    "spec_from_wire",
    "request_to_wire",
    "request_from_wire",
    "snapshot_to_wire",
    "error_envelope",
    "error_answer",
    "raise_for_envelope",
    "raise_for_http_error",
]

#: reserved key marking the tagged value forms; a plain dict may not use it
_TAG = "__wire__"


class WireFormatError(ValueError):
    """A wire document failed to decode (malformed, wrong types, bad tag)."""


# ------------------------------------------------------------ typed exceptions
class ServiceError(RuntimeError):
    """Base of the typed exceptions of the error envelope.

    Route handlers raise them on the server, and :func:`raise_for_envelope`
    raises them on the client.  A client-side one carries the
    machine-readable ``code``, the HTTP ``status`` it arrived under and the
    server's ``retry_after`` hint (seconds, or ``None``); one raised on the
    server needs none of them, because the error table maps it by type.
    """

    def __init__(
        self,
        message: str,
        code: str | None = None,
        status: int | None = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.status = status
        self.retry_after = retry_after


class BadRequestError(ServiceError):
    """The server rejected the request document (envelope code ``bad_request``)."""


class UnknownJobError(ServiceError, KeyError):
    """A job id the service has never seen (envelope code ``unknown_job``).

    Subclasses :class:`KeyError` to match the in-process
    :meth:`~repro.service.scheduler.Scheduler.result` contract.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return RuntimeError.__str__(self)


class ServiceUnavailableError(ServiceError):
    """The service cannot make progress (envelope code ``unavailable``)."""


class UnauthorizedError(ServiceError):
    """The bearer token was missing or wrong (envelope code ``unauthorized``)."""


class NotFoundError(ServiceError):
    """No route serves the path (envelope code ``not_found``)."""


class MethodNotAllowedError(ServiceError):
    """A known path asked with another method (envelope code ``method_not_allowed``)."""


#: The error table: each envelope code once, with its HTTP status, the
#: exception types a server answers with it, and the exception
#: :func:`raise_for_envelope` raises for it.  :func:`error_answer` takes the
#: first row whose server-side types match, so subclasses come before their
#: bases (``JobExpiredError`` is a ``KeyError``) and the catch-all is last.
_ERRORS: tuple[tuple[str, int, tuple[type[BaseException], ...], type[Exception]], ...] = (
    ("bad_request", 400, (WireFormatError,), BadRequestError),
    ("unauthorized", 401, (UnauthorizedError,), UnauthorizedError),
    ("not_found", 404, (NotFoundError,), NotFoundError),
    ("method_not_allowed", 405, (MethodNotAllowedError,), MethodNotAllowedError),
    ("job_expired", 410, (JobExpiredError,), JobExpiredError),
    ("unknown_job", 404, (KeyError,), UnknownJobError),
    ("queue_saturated", 429, (QueueSaturatedError,), QueueSaturatedError),
    ("unavailable", 503, (ServiceUnavailableError,), ServiceUnavailableError),
    ("internal", 500, (Exception,), ServiceError),
)


def error_envelope(
    code: str, message: str, retry_after: float | None = None
) -> dict:
    """The one JSON error body every endpoint answers 4xx/5xx with."""
    return {
        "error": {
            "code": str(code),
            "message": str(message),
            "retry_after": retry_after,
        }
    }


def error_answer(exc: BaseException) -> tuple[int, dict, dict[str, str]]:
    """The ``(status, envelope, headers)`` a server answers a raised exception with.

    The first error-table row whose server-side types match picks the code
    and status; anything unforeseen is a 500 ``internal``.  A
    :class:`~repro.service.jobs.QueueSaturatedError`'s retry hint travels
    in the envelope and as a whole-seconds ``Retry-After`` header.
    """
    code, status = next(
        (code, status) for code, status, raised, _ in _ERRORS if isinstance(exc, raised)
    )
    # KeyError would repr() its message
    message = str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)
    if code == "internal":
        message = f"{type(exc).__name__}: {message}"
    retry_after = exc.retry_after_s if isinstance(exc, QueueSaturatedError) else None
    headers = {} if retry_after is None else {"Retry-After": str(max(1, round(retry_after)))}
    return status, error_envelope(code, message, retry_after), headers


def raise_for_envelope(status: int, doc: Any) -> NoReturn:
    """Raise the typed exception an error envelope describes.

    ``job_expired`` raises the in-process
    :class:`~repro.service.jobs.JobExpiredError`, ``queue_saturated`` the
    in-process :class:`~repro.service.jobs.QueueSaturatedError`
    (carrying the retry hint) — callers handle local and remote failures
    with one ``except`` clause.  Every other code raises the
    :class:`ServiceError` subclass of its error-table row, or a plain
    :class:`ServiceError` for a code the table does not know.
    """
    err = doc.get("error") if isinstance(doc, dict) else None
    if not isinstance(err, dict):
        err = {"code": "error", "message": str(doc)}
    code = str(err.get("code") or "error")
    message = str(err.get("message") or f"HTTP {status}")
    retry_after = err.get("retry_after")
    cls = next((raises for c, _, _, raises in _ERRORS if c == code), ServiceError)
    if cls is QueueSaturatedError:
        raise QueueSaturatedError(message, retry_after_s=float(retry_after or 1.0))
    if issubclass(cls, ServiceError):
        raise cls(message, code=code, status=status, retry_after=retry_after)
    raise cls(message)  # the in-process JobExpiredError


def raise_for_http_error(exc: HTTPError) -> NoReturn:
    """Raise the typed exception an HTTP error answer's envelope describes.

    The one client-side decoder of a ``urllib`` :class:`HTTPError`; a body
    that is not JSON still raises, as a :class:`ServiceError` carrying its
    text.
    """
    payload = exc.read()
    try:
        doc: Any = json.loads(payload)
    except ValueError:
        doc = payload.decode("utf-8", errors="replace") or f"HTTP {exc.code}"
    raise_for_envelope(exc.code, doc)


# ------------------------------------------------------------------ primitives
def encode_array(array: np.ndarray) -> dict:
    """One ndarray as ``{"__wire__": "ndarray", "dtype", "shape", "data"}``.

    The buffer travels base64-encoded in C order under an explicit
    little-endian dtype — bit-exact, no text formatting involved.
    """
    contiguous = np.ascontiguousarray(array)
    dtype = contiguous.dtype.newbyteorder("<")
    return {
        _TAG: "ndarray",
        "dtype": dtype.str,
        "shape": list(contiguous.shape),
        "data": base64.b64encode(contiguous.astype(dtype, copy=False).tobytes()).decode(),
    }


def decode_array(doc: dict) -> np.ndarray:
    """Rebuild the ndarray an :func:`encode_array` document describes."""
    try:
        dtype = np.dtype(str(doc["dtype"]))
        shape = tuple(int(s) for s in doc["shape"])
        data = base64.b64decode(doc["data"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed ndarray document: {exc}") from exc
    if dtype.hasobject:
        raise WireFormatError("object dtypes are not wire-encodable")
    if len(data) != dtype.itemsize * int(np.prod(shape, dtype=np.int64)):
        raise WireFormatError("ndarray payload size does not match dtype * shape")
    array = np.frombuffer(data, dtype=dtype).reshape(shape)
    return np.ascontiguousarray(array.astype(dtype.newbyteorder("="), copy=True))


def encode_value(value: Any) -> Any:
    """One option value as plain JSON data (tuples and arrays tagged)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, tuple):
        return {_TAG: "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        if _TAG in value:
            raise WireFormatError(f"dict key {_TAG!r} is reserved by the wire format")
        if not all(isinstance(k, str) for k in value):
            raise WireFormatError("only string-keyed dicts are wire-encodable")
        return {k: encode_value(v) for k, v in value.items()}
    raise WireFormatError(
        f"value of type {type(value).__name__} is not wire-encodable"
    )


def decode_value(doc: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if doc is None or isinstance(doc, (bool, int, float, str)):
        return doc
    if isinstance(doc, list):
        return [decode_value(v) for v in doc]
    if isinstance(doc, dict):
        tag = doc.get(_TAG)
        if tag == "ndarray":
            return decode_array(doc)
        if tag == "tuple":
            items = doc.get("items")
            if not isinstance(items, list):
                raise WireFormatError("tuple document lacks an items list")
            return tuple(decode_value(v) for v in items)
        if tag is not None:
            raise WireFormatError(f"unknown wire tag {tag!r}")
        return {str(k): decode_value(v) for k, v in doc.items()}
    raise WireFormatError(f"undecodable wire value of type {type(doc).__name__}")


# ------------------------------------------------------------- domain objects
def layout_to_wire(layout: ContactLayout) -> dict:
    return {
        "size_x": layout.size_x,
        "size_y": layout.size_y,
        "contacts": [
            {"x": c.x, "y": c.y, "width": c.width, "height": c.height, "name": c.name}
            for c in layout.contacts
        ],
    }


def layout_from_wire(doc: Any) -> ContactLayout:
    if not isinstance(doc, dict):
        raise WireFormatError("layout document must be an object")
    try:
        contacts = [
            Contact(
                float(c["x"]),
                float(c["y"]),
                float(c["width"]),
                float(c["height"]),
                str(c.get("name", "")),
            )
            for c in doc["contacts"]
        ]
        return ContactLayout(contacts, float(doc["size_x"]), float(doc["size_y"]))
    except WireFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed layout document: {exc}") from exc


def profile_to_wire(profile: SubstrateProfile | None) -> dict | None:
    if profile is None:
        return None
    return {
        "size_x": profile.size_x,
        "size_y": profile.size_y,
        "layers": [
            {"thickness": layer.thickness, "conductivity": layer.conductivity}
            for layer in profile.layers
        ],
        "grounded_backplane": profile.grounded_backplane,
    }


def profile_from_wire(doc: Any) -> SubstrateProfile | None:
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise WireFormatError("profile document must be an object or null")
    try:
        layers = [
            Layer(float(layer["thickness"]), float(layer["conductivity"]))
            for layer in doc["layers"]
        ]
        return SubstrateProfile(
            float(doc["size_x"]),
            float(doc["size_y"]),
            layers,
            grounded_backplane=bool(doc["grounded_backplane"]),
        )
    except WireFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed profile document: {exc}") from exc


def spec_to_wire(spec: SolverSpec) -> dict:
    return {
        "kind": spec.kind,
        "layout": layout_to_wire(spec.layout),
        "profile": profile_to_wire(spec.profile),
        "options": {key: encode_value(value) for key, value in spec.options.items()},
    }


def spec_from_wire(doc: Any) -> SolverSpec:
    if not isinstance(doc, dict):
        raise WireFormatError("spec document must be an object")
    kind = doc.get("kind")
    if kind not in SPEC_KINDS:
        raise WireFormatError(f"spec kind must be one of {SPEC_KINDS}, got {kind!r}")
    options_doc = doc.get("options") or {}
    if not isinstance(options_doc, dict):
        raise WireFormatError("spec options must be an object")
    try:
        return SolverSpec(
            kind,
            layout_from_wire(doc.get("layout")),
            profile_from_wire(doc.get("profile")),
            {str(k): decode_value(v) for k, v in options_doc.items()},
        )
    except WireFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed spec document: {exc}") from exc


def request_to_wire(request: JobRequest) -> dict:
    """One :class:`JobRequest` as the ``/v1`` submit document (no pickle)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "spec": spec_to_wire(request.spec),
        "columns": list(request.columns) if request.columns is not None else None,
        "pairs": [list(p) for p in request.pairs] if request.pairs is not None else None,
        "tolerance": request.tolerance,
        "priority": request.priority,
        "timeout_s": request.timeout_s,
    }


def request_from_wire(doc: Any) -> JobRequest:
    """Rebuild the :class:`JobRequest` a submit document describes.

    Raises :class:`WireFormatError` for anything malformed — including an
    unknown ``schema_version``, so a future v2 client fails loudly against
    a v1 server instead of being half-understood.
    """
    if not isinstance(doc, dict):
        raise WireFormatError("request document must be an object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise WireFormatError(
            f"unsupported schema_version {version!r} (this server speaks "
            f"{SCHEMA_VERSION})"
        )
    columns = doc.get("columns")
    pairs = doc.get("pairs")
    tolerance = doc.get("tolerance")
    timeout_s = doc.get("timeout_s")
    try:
        return JobRequest(
            spec=spec_from_wire(doc.get("spec")),
            columns=tuple(int(c) for c in columns) if columns is not None else None,
            pairs=(
                tuple((int(i), int(j)) for i, j in pairs) if pairs is not None else None
            ),
            tolerance=float(tolerance) if tolerance is not None else None,
            priority=int(doc.get("priority") or 0),
            timeout_s=float(timeout_s) if timeout_s is not None else None,
        )
    except WireFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed request document: {exc}") from exc


def snapshot_to_wire(snapshot: dict) -> dict:
    """A job snapshot as its ``/v1`` document: arrays become wire ndarrays.

    :meth:`~repro.service.jobs.Job.snapshot` keeps ``result`` and
    ``pair_values`` as ndarrays; this is the one place they are encoded,
    as base64 float64 documents — compact and bit-exact.
    """
    doc = dict(snapshot)
    if doc.get("result") is not None:
        doc["result"] = encode_array(np.asarray(doc["result"], dtype=np.float64))
    if doc.get("pair_values") is not None:
        doc["pair_values"] = encode_array(
            np.asarray(doc["pair_values"], dtype=np.float64)
        )
    return doc
