"""JSON encoding of matrices and vectors.

Matrices travel as row-major nested lists.  Complex entries are encoded
as two-element ``[re, im]`` lists, real entries as plain numbers; the
reader is told the field and does not guess it from the leaves, and it
refuses a leaf that is not a finite number (a string, ``true``, NaN).
Sizes, offsets and counts are JSON integers: ``2.0``, ``"2"`` and
``true`` are rejected, not converted; a real-valued setting rejects
``true`` alike.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InvalidArgumentError


def is_integer(value) -> bool:
    """An integer that is not a bool (JSON ``true`` parses to one)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number that is not a bool (``True`` is a Real equal to 1)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def matrix_to_json(a: np.ndarray):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return np.stack([a.real, a.imag], axis=-1).tolist()
    return a.tolist()


def _finite_numbers(data) -> bool:
    """Every leaf of a nested list is a finite real number (not a string,
    a bool or a NaN)."""
    if isinstance(data, list):
        return all(_finite_numbers(item) for item in data)
    return is_real(data) and math.isfinite(data)


def matrix_from_json(data, complex_field: bool) -> np.ndarray:
    """Decode a nested-list matrix over the given field; every leaf is a
    finite JSON number, and over the complex field every entry an
    ``[re, im]`` pair of them."""
    try:
        finite = _finite_numbers(data)
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"malformed matrix payload: {exc}") from exc
    if not finite:
        raise InvalidArgumentError("matrix entries must be finite JSON numbers")
    if not complex_field:
        return arr
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise InvalidArgumentError("complex entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]
