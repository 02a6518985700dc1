"""Shared utilities: argument validation, atomic writes, and deterministic RNG helpers.

These helpers are deliberately small and dependency free so that every other
subpackage (``repro.sparse``, ``repro.graph``, ``repro.eigen`` ...) can use
them without creating import cycles.
"""

from repro.utils.validation import (
    check_permutation,
    check_square,
    require_positive_int,
)
from repro.utils.atomic import atomic_output_file, atomic_write_bytes, atomic_write_text
from repro.utils.rng import default_rng

__all__ = [
    "check_permutation",
    "check_square",
    "require_positive_int",
    "atomic_output_file",
    "atomic_write_bytes",
    "atomic_write_text",
    "default_rng",
]
