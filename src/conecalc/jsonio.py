"""Canonical JSON emission and matrix/vector parsing.

Reports must be byte-stable across runs, so floats are always rendered with
the same %.12e format, keys are sorted, and infinities become the string
"inf" (strict JSON has no literal for them).  Matrices travel as row-major
arrays of [re, im] pairs; plain numbers are accepted on input as real
entries.
"""

from __future__ import annotations

import cmath
import math
from json.encoder import encode_basestring

import numpy as np

from .errors import SchemaError


def _canon_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN has no canonical representation")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return "%.12e" % x


def _canon(obj) -> str:
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ",".join(f"{_canon(str(k))}:{_canon(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _canon_float(float(obj))
    if isinstance(obj, str):
        return encode_basestring(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, %.12e floats, LF-free one-liner."""
    return _canon(obj)


def _is_number(value) -> bool:
    """A JSON number: true and false are no numbers, though bool is an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_entry(cell) -> complex:
    if _is_number(cell):
        parts = (cell, 0.0)
    elif isinstance(cell, list) and len(cell) == 2 and all(_is_number(c) for c in cell):
        parts = cell
    else:
        raise SchemaError(f"matrix entry must be a number or [re, im] pair, got {cell!r}")
    try:
        z = complex(parts[0], parts[1])
    except OverflowError:  # an integer literal too large for a float
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise SchemaError(f"matrix entry {cell!r} is not finite")
    return z


def matrix_from_json(rows, context: str = "matrix") -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise SchemaError(f"{context}: expected a nonempty list of rows")
    try:
        mat = np.array([[_parse_entry(cell) for cell in row] for row in rows])
    except (SchemaError, TypeError, ValueError) as exc:
        raise SchemaError(f"{context}: {exc}") from exc
    if mat.ndim != 2:
        raise SchemaError(f"{context}: ragged rows")
    return mat


def vector_from_json(cells, context: str = "vector") -> np.ndarray:
    if not isinstance(cells, list) or not cells:
        raise SchemaError(f"{context}: expected a nonempty list")
    try:
        return np.array([_parse_entry(c) for c in cells])
    except SchemaError as exc:
        raise SchemaError(f"{context}: {exc}") from exc
