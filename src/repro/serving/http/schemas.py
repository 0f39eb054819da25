"""Request/response schemas for the HTTP serving front end.

Every endpoint speaks JSON.  This module is the validation boundary: raw
payload dicts parse into typed request objects (strict — unknown fields,
wrong types, out-of-bound sizes all raise
:class:`~repro.errors.ValidationError` with a field-named message), and
every library exception maps to one HTTP status through
:func:`status_for`, so a client can route on the *class* of failure the
same way in-process callers route on the exception type:

==============================  ======
error                           status
==============================  ======
``ValidationError`` (+ shape/
config/vocabulary errors)       400
``NotFittedError``              409
``OverloadedError``             429
``ShutdownError``               503
``DeadlineExceededError``       504
anything else                   500
==============================  ======

The wire formats:

- ``POST /query``  ``{"vector": [..]}`` or ``{"vectors": [[..], ..]}``,
  optional ``top_k`` (default 10) and ``deadline_s``.
  -> ``{"ids": [[..]], "distances": [[..]], "degraded": false}``
  (``degraded`` is always ``false``: every answer comes from every shard)
- ``POST /add``    ``{"vectors": [[..], ..]}``, optional ``ids``.
  -> ``{"ids": [..]}``
- ``POST /remove`` ``{"ids": [..]}``  ->  ``{"removed": n}``
- ``POST /swap``   ``{"model": "<fingerprint-or-path>"}``
- ``GET /stats`` / ``GET /health``  ->  the service dicts, JSON-sanitized.
- errors           ``{"error": {"type": "<ExceptionName>", "message": ..}}``
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    NotFittedError,
    OverloadedError,
    ReproError,
    ShapeError,
    ShutdownError,
    ValidationError,
    VocabularyError,
)

#: Hard per-request bounds: a single malformed or hostile payload must not
#: be able to queue unbounded work behind the admission controller.
MAX_ROWS = 4096
MAX_DIM = 65536
MAX_TOP_K = 4096
MAX_IDS = 65536

#: First matching class decides the HTTP status (order matters: every
#: entry is a ReproError subclass, checked before the catch-alls).
_STATUS_TABLE: tuple[tuple[type[BaseException], int], ...] = (
    (ValidationError, 400),
    (ShapeError, 400),
    (VocabularyError, 400),
    (ConfigurationError, 400),
    (NotFittedError, 409),
    (OverloadedError, 429),
    (ShutdownError, 503),
    (DeadlineExceededError, 504),
    (ReproError, 500),
)


def status_for(exc: BaseException) -> int:
    """HTTP status code for a handler exception (500 for foreign ones)."""
    for klass, status in _STATUS_TABLE:
        if isinstance(exc, klass):
            return status
    return 500


def error_body(exc: BaseException) -> dict:
    """The JSON error envelope: the typed error's class name + message."""
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


# -- payload primitives --------------------------------------------------------


def _require_object(payload: object, endpoint: str) -> dict:
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise ValidationError(
            f"{endpoint}: request body must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    return payload


def _reject_unknown(payload: dict, allowed: frozenset[str], endpoint: str) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ValidationError(
            f"{endpoint}: unknown field(s) {unknown}; "
            f"allowed: {sorted(allowed)}"
        )


#: What a JSON array holds when numpy infers a dtype of this kind.
_KIND_NAMES = {"b": "booleans", "U": "strings", "f": "floats",
               "u": "integers past the int64 range"}


def _typed_array(value: object, field: str, kinds: str, what: str) -> np.ndarray:
    """``value`` as the array numpy infers for it, when its dtype kind is
    one of ``kinds``.

    Inferring first and casting afterwards is what keeps JSON strings and
    booleans (and, for ids, floats) from being silently converted into
    numbers.  Ragged nesting and values numpy can only hold as objects
    (``null``, objects, integers past 64 bits) are rejected too.
    """
    try:
        array = np.asarray(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{field} must be {what}") from None
    if array.size and array.dtype.kind not in kinds:
        got = _KIND_NAMES.get(array.dtype.kind, "non-numeric values")
        raise ValidationError(f"{field} must be {what}; got {got}")
    return array


def _as_matrix(value: object, field: str, *, single: bool = False) -> np.ndarray:
    """A JSON array of numbers as a float64 batch whose first axis
    indexes rows.

    Accepts feature rows (1-D single / 2-D batch) and image tensors
    (3-D single / 4-D batch — the encoder decides what a row means);
    with ``single=True`` the payload is one row and gets the batch axis
    prepended.
    """
    matrix = _typed_array(
        value, field, "iuf", "an array of finite numbers"
    ).astype(np.float64, copy=False)
    if single:
        if matrix.ndim not in (1, 3):
            raise ValidationError(
                f"{field} must be one row (a flat vector or one image "
                f"tensor); use the batch field for multiple rows"
            )
        matrix = matrix[None, ...]
    elif matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim not in (2, 4):
        raise ValidationError(
            f"{field} must be a batch of vectors or image tensors, "
            f"got {matrix.ndim} dimensions"
        )
    if matrix.size == 0:
        raise ValidationError(f"{field} must not be empty")
    if matrix.shape[0] > MAX_ROWS:
        raise ValidationError(
            f"{field} has {matrix.shape[0]} rows; the per-request limit "
            f"is {MAX_ROWS}"
        )
    row_size = int(np.prod(matrix.shape[1:]))
    if row_size > MAX_DIM:
        raise ValidationError(
            f"{field} rows have {row_size} entries; the limit "
            f"is {MAX_DIM}"
        )
    if not np.isfinite(matrix).all():
        raise ValidationError(f"{field} must contain only finite numbers")
    return matrix


def _as_ids(value: object, field: str) -> np.ndarray:
    ids = np.atleast_1d(
        _typed_array(value, field, "i", "a list of 64-bit integers")
    ).astype(np.int64, copy=False)
    if ids.ndim != 1:
        raise ValidationError(f"{field} must be a flat list of integers")
    if ids.size == 0:
        raise ValidationError(f"{field} must not be empty")
    if ids.size > MAX_IDS:
        raise ValidationError(
            f"{field} has {ids.size} ids; the per-request limit is {MAX_IDS}"
        )
    return ids


def _as_int(value: object, field: str, low: int, high: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{field} must be an integer")
    if not low <= value <= high:
        raise ValidationError(
            f"{field} must be in [{low}, {high}]: {value}"
        )
    return value


def _as_positive_float(value: object, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{field} must be a number")
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise ValidationError(f"{field} must be a positive number: {value}")
    return value


# -- requests ------------------------------------------------------------------


@dataclass(frozen=True)
class QueryRequest:
    vectors: np.ndarray
    top_k: int
    deadline_s: float | None


@dataclass(frozen=True)
class AddRequest:
    vectors: np.ndarray
    ids: np.ndarray | None


@dataclass(frozen=True)
class RemoveRequest:
    ids: np.ndarray


@dataclass(frozen=True)
class SwapRequest:
    model: str


def parse_query(payload: object) -> QueryRequest:
    payload = _require_object(payload, "query")
    _reject_unknown(
        payload, frozenset({"vector", "vectors", "top_k", "deadline_s"}),
        "query",
    )
    if ("vector" in payload) == ("vectors" in payload):
        raise ValidationError(
            'query: exactly one of "vector" (one row) or "vectors" '
            '(a batch) is required'
        )
    field = "vector" if "vector" in payload else "vectors"
    vectors = _as_matrix(payload[field], field, single=field == "vector")
    top_k = _as_int(payload.get("top_k", 10), "top_k", 1, MAX_TOP_K)
    deadline = payload.get("deadline_s")
    if deadline is not None:
        deadline = _as_positive_float(deadline, "deadline_s")
    return QueryRequest(vectors=vectors, top_k=top_k, deadline_s=deadline)


def parse_add(payload: object) -> AddRequest:
    payload = _require_object(payload, "add")
    _reject_unknown(payload, frozenset({"vectors", "ids"}), "add")
    if "vectors" not in payload:
        raise ValidationError('add: "vectors" is required')
    vectors = _as_matrix(payload["vectors"], "vectors")
    ids = payload.get("ids")
    if ids is not None:
        ids = _as_ids(ids, "ids")
        if ids.size != vectors.shape[0]:
            raise ValidationError(
                f"add: got {ids.size} ids for {vectors.shape[0]} rows"
            )
    return AddRequest(vectors=vectors, ids=ids)


def parse_remove(payload: object) -> RemoveRequest:
    payload = _require_object(payload, "remove")
    _reject_unknown(payload, frozenset({"ids"}), "remove")
    if "ids" not in payload:
        raise ValidationError('remove: "ids" is required')
    return RemoveRequest(ids=_as_ids(payload["ids"], "ids"))


def parse_swap(payload: object) -> SwapRequest:
    payload = _require_object(payload, "swap")
    _reject_unknown(payload, frozenset({"model"}), "swap")
    model = payload.get("model")
    if not isinstance(model, str) or not model.strip():
        raise ValidationError(
            'swap: "model" must be a non-empty store fingerprint or '
            'archive path'
        )
    return SwapRequest(model=model.strip())


# -- responses -----------------------------------------------------------------


def jsonable(value: object) -> object:
    """Recursively convert numpy scalars/arrays so json.dumps accepts it."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    return value


def query_response(ids: np.ndarray, distances: np.ndarray) -> dict:
    """The /query envelope; float64 distances survive the JSON round trip
    bit-exactly (Python serializes floats via repr).  ``degraded`` is a
    constant ``False`` kept so the response bytes stay unchanged for
    clients that check it."""
    return {
        "ids": ids.tolist(),
        "distances": distances.tolist(),
        "degraded": False,
    }
