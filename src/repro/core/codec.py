"""Exact-float model-state codec and canonical hashing.

The write-ahead log and the decision-provenance layer share one
serialization discipline: every float goes through Python's ``repr``-based
JSON encoding, which round-trips IEEE-754 doubles bit for bit, and every
payload hash is computed over *canonical* JSON (sorted keys, no
whitespace) so two processes that hold the same model state produce the
same digest.

The codec lives in ``core`` so the engine layer can serialize and hash
model states without importing the service layer.  For the same reason it
holds :func:`strict_json`, the one encoder of API response text: the
service encodes whole bodies with it and the decision recorder each
record's text, so the two cannot drift.

:func:`model_state_hash` hashes a model state under one of two schemes,
picked by the session's audit format (see
:mod:`repro.engine.provenance`):

* **scheme 1** — SHA-256 of the canonical JSON of
  :func:`serialize_result`;
* **scheme 2** — SHA-256 over a canonical-JSON header followed by the
  result's arrays as little-endian buffers (:func:`buffer_hash`).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.core.inference import (
    InferenceResult,
    column_label_counts,
    label_row_totals,
)
from repro.core.schema import TableSchema
from repro.core.worker_model import WorkerModel
from repro.utils.exceptions import (
    ConfigurationError,
    DurabilityError,
    ResponseEncodingError,
)


def serialize_result(result: InferenceResult) -> dict:
    """Serialize an :class:`InferenceResult` to a JSON-safe dict, exactly.

    Every float goes through Python's ``repr``-based JSON encoding, which
    round-trips IEEE-754 doubles bit for bit.  Posteriors are written as
    ``[row, col, kind, floats]`` entries: the continuous cells (``"g"``,
    ``[mean, variance]``) in row-major order, then the categorical cells
    (``"c"``, one probability per label) in row-major order.  The format-1
    audit hash is computed over this layout, so it must not change.
    ``deserialize_result(serialize_result(r), r.schema)`` reproduces the
    result's arrays to the last bit — the precondition for replaying the
    warm-start chain identically after recovery.
    """
    num_cols = result.schema.num_columns
    posteriors = [
        [key // num_cols, key % num_cols, "g", [mean, variance]]
        for key, mean, variance in zip(
            result.cont_keys.tolist(),
            result.cont_mean.tolist(),
            result.cont_var.tolist(),
        )
    ]
    label_counts = column_label_counts(result.schema).tolist()
    for key, probs in zip(result.cat_keys.tolist(), result.cat_probs.tolist()):
        col = key % num_cols
        posteriors.append([key // num_cols, col, "c", probs[: label_counts[col]]])
    return {
        "epsilon": float(result.worker_model.epsilon),
        "worker_ids": list(result.worker_ids),
        "alpha": [float(x) for x in result.alpha],
        "beta": [float(x) for x in result.beta],
        "phi": [float(x) for x in result.phi],
        "column_scale": [float(x) for x in result.column_scale],
        "column_offset": [float(x) for x in result.column_offset],
        "posteriors": posteriors,
        "objective_trace": [float(x) for x in result.objective_trace],
        "n_iterations": int(result.n_iterations),
        "converged": bool(result.converged),
        "stopped_by": str(result.stopped_by),
    }


def _snapshot_keys(entries, schema: TableSchema, categorical: bool) -> np.ndarray:
    """Row-major keys of snapshot posterior entries, checked against the schema."""
    rows = np.array([int(entry[0]) for entry in entries], dtype=np.int64)
    cols = np.array([int(entry[1]) for entry in entries], dtype=np.int64)
    if not np.all(
        (rows >= 0) & (rows < schema.num_rows)
        & (cols >= 0) & (cols < schema.num_columns)
    ):
        raise DurabilityError("snapshot posterior cell outside the schema")
    is_categorical = column_label_counts(schema) > 0
    if np.any(is_categorical[cols] != categorical):
        raise DurabilityError("snapshot posterior kind does not match its column")
    keys = rows * schema.num_columns + cols
    if np.any(np.diff(keys) <= 0):
        raise DurabilityError("snapshot posteriors are not in row-major cell order")
    return keys


def deserialize_result(payload: dict, schema: TableSchema) -> InferenceResult:
    """Rebuild the :class:`InferenceResult` serialized by :func:`serialize_result`.

    Categorical probabilities are reinstated exactly as stored, without
    renormalisation.  Data read from disk is checked as a whole: every
    variance must be positive, every label row must carry a finite positive
    mass and one probability per label of its column, or
    :class:`DurabilityError` is raised.
    """
    continuous, categorical = [], []
    for entry in payload["posteriors"]:
        kind = entry[2]
        if kind == "g":
            continuous.append(entry)
        elif kind == "c":
            categorical.append(entry)
        else:
            raise DurabilityError(f"Unknown posterior kind {kind!r} in snapshot")

    cont_keys = _snapshot_keys(continuous, schema, categorical=False)
    gaussian = np.array(
        [[float(entry[3][0]), float(entry[3][1])] for entry in continuous],
        dtype=float,
    ).reshape(-1, 2)
    if not np.all(gaussian[:, 1] > 0):
        raise DurabilityError("snapshot holds a non-positive posterior variance")

    cat_keys = _snapshot_keys(categorical, schema, categorical=True)
    counts = column_label_counts(schema)[cat_keys % schema.num_columns]
    lengths = np.array([len(entry[3]) for entry in categorical], dtype=np.int64)
    if np.any(lengths != counts):
        raise DurabilityError("snapshot label row does not match its column's labels")
    cat_probs = np.zeros((len(categorical), int(counts.max()) if len(counts) else 0))
    for count in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == count)
        cat_probs[rows, :count] = np.array(
            [categorical[index][3] for index in rows.tolist()], dtype=float
        )
    totals = label_row_totals(cat_probs, counts)
    if not np.all(np.isfinite(totals) & (totals > 0)):
        raise DurabilityError("snapshot label row without a finite positive mass")

    return InferenceResult(
        schema=schema,
        worker_model=WorkerModel(float(payload["epsilon"])),
        worker_ids=list(payload["worker_ids"]),
        alpha=np.asarray(payload["alpha"], dtype=float),
        beta=np.asarray(payload["beta"], dtype=float),
        phi=np.asarray(payload["phi"], dtype=float),
        column_scale=np.asarray(payload["column_scale"], dtype=float),
        column_offset=np.asarray(payload["column_offset"], dtype=float),
        cont_keys=cont_keys,
        cont_mean=gaussian[:, 0].copy(),
        cont_var=gaussian[:, 1].copy(),
        cat_keys=cat_keys,
        cat_probs=cat_probs,
        objective_trace=list(payload["objective_trace"]),
        n_iterations=int(payload["n_iterations"]),
        converged=bool(payload["converged"]),
        stopped_by=str(payload["stopped_by"]),
    )


def canonical_json(payload) -> str:
    """The one canonical JSON text of a payload: sorted keys, no whitespace.

    Floats encode via ``repr`` (the stdlib default), so bit-identical
    doubles — and only bit-identical doubles — produce identical text.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: Strict JSON encoder of API response text, built once (``json.dumps``
#: with keyword arguments would build a new encoder per call).
_STRICT_ENCODER = json.JSONEncoder(allow_nan=False)


def strict_json(payload) -> str:
    """``payload`` as the API sends it: strict JSON, default separators.

    A non-finite number raises :class:`ResponseEncodingError`, which the
    API answers with a 500: it is a server fault, never the 400 that a
    bare ``ValueError`` maps to.
    """
    try:
        return _STRICT_ENCODER.encode(payload)
    except ValueError as exc:
        raise ResponseEncodingError(f"Response is not valid JSON: {exc}") from None


def payload_hash(payload) -> str:
    """SHA-256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def buffer_hash(result: InferenceResult) -> str:
    """Scheme-2 model-state hash: a JSON header, then raw array bytes.

    SHA-256 over the UTF-8 :func:`canonical_json` of the header, followed
    by these buffers in this order, each as contiguous little-endian
    ``float64`` (``f8``) or ``int64`` (``i8``) values: ``alpha``,
    ``beta``, ``phi``, ``column_scale``, ``column_offset``,
    ``objective_trace`` (f8), ``cont_keys`` (i8), ``cont_mean``,
    ``cont_var`` (f8), ``cat_keys`` (i8) and ``cat_probs`` (f8: each
    categorical cell's probabilities over exactly its column's labels,
    cells in key order, so the padded width never reaches the digest).
    The header holds the table dimensions, each column's label count, the
    worker ids, epsilon, the iteration count, ``converged``, the stop
    reason and each buffer's name, type and length.
    """
    schema = result.schema
    label_counts = column_label_counts(schema)
    counts = label_counts[result.cat_keys % schema.num_columns]
    slots = np.arange(result.cat_probs.shape[1])
    ragged = result.cat_probs[slots[None, :] < counts[:, None]]
    buffers = (
        ("alpha", "<f8", result.alpha),
        ("beta", "<f8", result.beta),
        ("phi", "<f8", result.phi),
        ("column_scale", "<f8", result.column_scale),
        ("column_offset", "<f8", result.column_offset),
        ("objective_trace", "<f8", result.objective_trace),
        ("cont_keys", "<i8", result.cont_keys),
        ("cont_mean", "<f8", result.cont_mean),
        ("cont_var", "<f8", result.cont_var),
        ("cat_keys", "<i8", result.cat_keys),
        ("cat_probs", "<f8", ragged),
    )
    arrays = [
        (name, dtype, np.ascontiguousarray(values, dtype=dtype))
        for name, dtype, values in buffers
    ]
    header = {
        "scheme": 2,
        "num_rows": int(schema.num_rows),
        "num_columns": int(schema.num_columns),
        "label_counts": label_counts.tolist(),
        "worker_ids": list(result.worker_ids),
        "epsilon": float(result.worker_model.epsilon),
        "n_iterations": int(result.n_iterations),
        "converged": bool(result.converged),
        "stopped_by": str(result.stopped_by),
        "buffers": [[name, dtype, int(array.size)] for name, dtype, array in arrays],
    }
    digest = hashlib.sha256(canonical_json(header).encode("utf-8"))
    for _name, _dtype, array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


def model_state_hash(result: InferenceResult, audit_format: int) -> str:
    """Canonical hash of a model state under an audit format's scheme.

    Two equal digests mean two refits landed on bit-identical inference
    results.  Format 1 hashes the canonical JSON of
    :func:`serialize_result`; format 2 is :func:`buffer_hash`.
    """
    if audit_format == 1:
        return payload_hash(serialize_result(result))
    if audit_format == 2:
        return buffer_hash(result)
    raise ConfigurationError(f"Unknown audit format {audit_format!r}")
