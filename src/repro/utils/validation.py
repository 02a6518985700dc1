"""Argument-validation helpers used across the library.

All functions raise :class:`ValueError` (or :class:`TypeError`) with a message
naming the offending argument, so that library entry points fail fast with a
readable diagnostic rather than deep inside a NumPy kernel.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

__all__ = [
    "require_positive_int",
    "require_positive_finite",
    "check_permutation",
    "check_square",
    "as_int_array",
]


def require_positive_int(value, name: str, minimum: int = 1) -> int:
    """Validate that *value* is an integer ``>= minimum`` and return it.

    Parameters
    ----------
    value:
        The value to check.  Floats that are exactly integral are accepted.
    name:
        Argument name used in error messages.
    minimum:
        Smallest allowed value (inclusive).

    Returns
    -------
    int
        ``int(value)``.

    Raises
    ------
    TypeError
        If *value* is not integral.
    ValueError
        If *value* is smaller than *minimum*.
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got bool")
    if isinstance(value, float):
        if not value.is_integer():
            raise TypeError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def require_positive_finite(value, name: str) -> float:
    """Validate a positive, finite number: a surrogate scale or a time limit.

    Accepts anything :class:`float` parses (numbers and numeric strings) and
    returns it as a float.  Raises :class:`ValueError` naming the argument
    and the value for non-numeric input, ``nan``, ``±inf``, zero and
    negative values.
    """
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not (math.isfinite(number) and number > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return number


def as_int_array(values, name: str) -> np.ndarray:
    """Convert *values* to a 1-D ``intp`` array, rejecting non-integral input."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.intp)
        else:
            raise TypeError(f"{name} must contain integers, got dtype {arr.dtype}")
    return arr.astype(np.intp, copy=False)


def check_permutation(perm, n: int | None = None, name: str = "perm") -> np.ndarray:
    """Validate that *perm* is a permutation of ``0 .. n-1`` and return it.

    Parameters
    ----------
    perm:
        Sequence of integers.
    n:
        Expected length.  If ``None`` the length of *perm* is used.
    name:
        Argument name for error messages.

    Returns
    -------
    numpy.ndarray
        The permutation as an ``intp`` array.
    """
    arr = as_int_array(perm, name)
    if n is None:
        n = arr.size
    if arr.size != n:
        raise ValueError(f"{name} has length {arr.size}, expected {n}")
    if n == 0:
        return arr
    seen = np.zeros(n, dtype=bool)
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError(f"{name} entries must lie in [0, {n - 1}]")
    seen[arr] = True
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise ValueError(f"{name} is not a permutation: index {missing} is missing")
    return arr


def check_square(matrix, name: str = "matrix"):
    """Validate that *matrix* is 2-D and square; return ``(matrix, n)``."""
    if sp.issparse(matrix):
        shape = matrix.shape
    else:
        matrix = np.asarray(matrix)
        shape = matrix.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{name} must be square, got shape {shape}")
    return matrix, shape[0]
