"""Schema-first wire protocol: exact round trips, envelopes, typed errors.

The contract under test is *fingerprint exactness*: a spec JSON-encoded,
shipped, and decoded must be the same coalescing key — same
``SolverSpec.fingerprint`` — and solve to the same columns, or the result
corpus / factor artifacts / cross-request coalescing would silently stop
matching across the wire boundary.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro import regular_grid
from repro.experiments.examples import paper_examples
from repro.service import (
    JobExpiredError,
    JobRequest,
    QueueSaturatedError,
    UnknownJobError,
    WireFormatError,
    request_from_wire,
    request_to_wire,
    spec_from_wire,
    spec_to_wire,
)
from repro.service.jobs import SCHEMA_VERSION
from repro.service.wire import (
    BadRequestError,
    ServiceError,
    decode_array,
    decode_value,
    encode_array,
    encode_value,
    error_envelope,
    raise_for_envelope,
    snapshot_to_wire,
)
from repro.substrate.extraction import extract_columns
from repro.substrate.parallel import SolverSpec


def roundtrip(doc):
    """Through real JSON text — exactly what the HTTP wire does."""
    return json.loads(json.dumps(doc))


# ------------------------------------------------------- fingerprint exactness
@pytest.mark.parametrize("name", ["1a", "1b", "2", "3"])
def test_every_example_spec_roundtrips_fingerprint_exact(name):
    """Each paper ExampleConfig (bem and fd kinds, tuple-valued options)
    crosses the JSON wire with an identical fingerprint."""
    cfg = paper_examples(n_side=4)[name]
    spec = cfg.build_spec()
    decoded = spec_from_wire(roundtrip(spec_to_wire(spec)))
    assert decoded.fingerprint == spec.fingerprint
    assert decoded.kind == spec.kind
    assert decoded.options == spec.options


@pytest.mark.parametrize("name", ["1a", "1b"])
def test_decoded_spec_solves_identically(name):
    """Columns solved from a decoded spec agree with the original to 1e-10."""
    cfg = paper_examples(n_side=4)[name]
    spec = cfg.build_spec()
    decoded = spec_from_wire(roundtrip(spec_to_wire(spec)))
    cols = np.array([0, 3, 7])
    original = extract_columns(spec.build(), cols)
    recovered = extract_columns(decoded.build(), cols)
    scale = np.abs(original).max()
    assert np.abs(recovered - original).max() / scale < 1e-10


def test_dense_spec_roundtrips_matrix_digest_exact():
    """An ndarray-valued option (the dense G) survives bit-exactly, so the
    digest-based fingerprint item matches."""
    layout = regular_grid(n_side=2, size=128.0, fill=0.5)
    rng = np.random.default_rng(7)
    matrix = rng.normal(size=(4, 4))
    matrix = matrix + matrix.T
    spec = SolverSpec.dense(matrix, layout)
    decoded = spec_from_wire(roundtrip(spec_to_wire(spec)))
    assert decoded.fingerprint == spec.fingerprint
    np.testing.assert_array_equal(decoded.options["matrix"], matrix)


def test_request_roundtrip_preserves_every_field(small_layout, small_profile):
    spec = SolverSpec.bem(small_layout, small_profile, max_panels=32, rtol=1e-10)
    request = JobRequest(
        spec,
        columns=(0, 5),
        pairs=((1, 2), (3, 4)),
        tolerance=3e-9,
        priority=7,
        timeout_s=12.5,
    )
    decoded = request_from_wire(roundtrip(request_to_wire(request)))
    assert decoded.columns == request.columns
    assert decoded.pairs == request.pairs
    assert decoded.tolerance == request.tolerance
    assert decoded.priority == request.priority
    assert decoded.timeout_s == request.timeout_s
    # layouts/profiles compare by identity; the value-level contract is the
    # fingerprint, which folds in every geometric and physical parameter
    assert decoded.spec.options == request.spec.options
    assert decoded.fingerprint == request.fingerprint
    # the key is the 32-hex-character blake2b-128 digest of the identity
    # tuple; the literal pins it across releases, because sqlite rows,
    # /v1/stats and heartbeat ledgers and router pins are keyed by it
    assert isinstance(request.fingerprint, str)
    assert re.fullmatch(r"[0-9a-f]{32}", request.fingerprint)
    assert request.fingerprint == "e7bac17bf3f297422db109e82be5e756"


# ------------------------------------------------------------- tagged values
def test_tuple_options_do_not_decay_to_lists():
    """repr((2, 4, 2)) != repr([2, 4, 2]) — a decayed tuple would change the
    fingerprint, so tuples travel tagged."""
    value = {"planes_per_layer": (2, 4, 2), "plain": [1, 2]}
    decoded = decode_value(roundtrip(encode_value(value)))
    assert decoded == value
    assert isinstance(decoded["planes_per_layer"], tuple)
    assert isinstance(decoded["plain"], list)


def test_nested_and_scalar_values_roundtrip():
    value = {
        "a": None,
        "b": True,
        "c": 3,
        "d": 2.5,
        "e": "s",
        "f": ((1, 2), [3, (4,)]),
    }
    assert decode_value(roundtrip(encode_value(value))) == value


def test_numpy_scalars_encode_as_python_scalars():
    assert encode_value(np.float64(1.5)) == 1.5
    assert encode_value(np.int64(3)) == 3


def test_reserved_tag_key_is_rejected():
    with pytest.raises(WireFormatError, match="reserved"):
        encode_value({"__wire__": "nope"})
    with pytest.raises(WireFormatError, match="unknown wire tag"):
        decode_value({"__wire__": "mystery"})


def test_unencodable_value_is_rejected():
    with pytest.raises(WireFormatError, match="not wire-encodable"):
        encode_value(object())
    with pytest.raises(WireFormatError, match="string-keyed"):
        encode_value({1: "x"})


# ------------------------------------------------------------------- ndarrays
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.complex128])
def test_array_roundtrip_bit_exact(dtype):
    rng = np.random.default_rng(0)
    array = rng.normal(size=(5, 3)).astype(dtype)
    decoded = decode_array(roundtrip(encode_array(array)))
    assert decoded.dtype == array.dtype
    np.testing.assert_array_equal(decoded, array)


def test_non_contiguous_array_roundtrips():
    array = np.arange(24, dtype=float).reshape(4, 6)[::2, ::3]
    decoded = decode_array(roundtrip(encode_array(array)))
    np.testing.assert_array_equal(decoded, array)


def test_malformed_array_documents_are_rejected():
    good = encode_array(np.ones(4))
    with pytest.raises(WireFormatError, match="size does not match"):
        decode_array({**good, "shape": [5]})
    with pytest.raises(WireFormatError, match="object dtypes"):
        decode_array({**good, "dtype": "O"})
    with pytest.raises(WireFormatError, match="malformed ndarray"):
        decode_array({"__wire__": "ndarray"})


# ------------------------------------------------------------------- requests
def test_unknown_schema_version_fails_loudly():
    doc = {"schema_version": SCHEMA_VERSION + 1, "spec": None}
    with pytest.raises(WireFormatError, match="unsupported schema_version"):
        request_from_wire(doc)


def test_malformed_spec_documents_are_rejected():
    with pytest.raises(WireFormatError, match="kind"):
        spec_from_wire({"kind": "quantum", "layout": None})
    with pytest.raises(WireFormatError):
        spec_from_wire({"kind": "bem", "layout": {"contacts": []}})
    with pytest.raises(WireFormatError):
        request_from_wire("not a dict")


# ----------------------------------------------------------- error envelopes
def test_error_envelope_shape():
    doc = error_envelope("queue_saturated", "busy", retry_after=2.5)
    assert doc == {
        "error": {"code": "queue_saturated", "message": "busy", "retry_after": 2.5}
    }


@pytest.mark.parametrize(
    "code,status,exc_type",
    [
        ("bad_request", 400, BadRequestError),
        ("unknown_job", 404, UnknownJobError),
        ("job_expired", 410, JobExpiredError),
        ("queue_saturated", 429, QueueSaturatedError),
        ("unavailable", 503, ServiceError),
        ("something_else", 500, ServiceError),
    ],
)
def test_envelopes_decode_to_typed_exceptions(code, status, exc_type):
    with pytest.raises(exc_type):
        raise_for_envelope(status, error_envelope(code, "boom"))


def test_queue_saturated_envelope_carries_retry_hint():
    with pytest.raises(QueueSaturatedError) as info:
        raise_for_envelope(429, error_envelope("queue_saturated", "busy", 4.0))
    assert info.value.retry_after_s == 4.0


def test_unknown_job_is_a_keyerror_with_a_clean_message():
    with pytest.raises(UnknownJobError) as info:
        raise_for_envelope(404, error_envelope("unknown_job", "unknown job id 'x'"))
    assert isinstance(info.value, KeyError)
    assert str(info.value) == "unknown job id 'x'"  # no KeyError repr-quoting


def test_non_envelope_body_still_raises():
    with pytest.raises(ServiceError) as info:
        raise_for_envelope(503, {"ok": False})
    assert info.value.status == 503


# ------------------------------------------------------------------ snapshots
def test_snapshot_to_wire_encodes_arrays():
    snapshot = {
        "schema_version": SCHEMA_VERSION,
        "status": "done",
        "result": np.array([[1.0, 2.0], [3.0, 4.0]]),
        "pair_values": np.array([5.0]),
    }
    doc = roundtrip(snapshot_to_wire(snapshot))
    assert doc["result"]["__wire__"] == "ndarray"
    np.testing.assert_array_equal(
        decode_array(doc["result"]), [[1.0, 2.0], [3.0, 4.0]]
    )
    np.testing.assert_array_equal(decode_array(doc["pair_values"]), [5.0])
