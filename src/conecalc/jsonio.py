"""Canonical JSON emission, and JSON matrices as arrays.

Reports must be byte-stable across runs, so floats are always rendered with
the same %.12e format, keys are sorted, and infinities become the string
"inf" (strict JSON has no literal for them).
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring

import numpy as np

from .spec import read_rows


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


def matrix_from_json(rows, context: str = "matrix") -> np.ndarray:
    """The complex array of a JSON matrix, as `spec.read_rows` reads it."""
    return np.array(read_rows(rows, context))
