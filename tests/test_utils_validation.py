"""Unit tests for repro.utils.validation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.utils.validation import (
    as_int_array,
    check_permutation,
    check_square,
    require_positive_finite,
    require_positive_int,
)


class TestRequirePositiveFinite:
    @pytest.mark.parametrize("value, expected", [(0.25, 0.25), (2, 2.0), ("0.5", 0.5)])
    def test_accepts_positive_finite(self, value, expected):
        assert require_positive_finite(value, "scale") == expected

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0, -1,
                                       "nan", "huge", None])
    def test_rejects_and_names_the_value(self, value):
        with pytest.raises(ValueError, match=f"s must be positive and finite, got {value!r}"):
            require_positive_finite(value, "s")


class TestRequirePositiveInt:
    def test_accepts_plain_int(self):
        assert require_positive_int(5, "x") == 5

    def test_accepts_numpy_integer(self):
        assert require_positive_int(np.int64(7), "x") == 7

    def test_accepts_integral_float(self):
        assert require_positive_int(3.0, "x") == 3

    def test_rejects_fractional_float(self):
        with pytest.raises(TypeError, match="x"):
            require_positive_int(3.5, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError, match="bool"):
            require_positive_int(True, "x")

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            require_positive_int("4", "x")

    def test_enforces_minimum(self):
        with pytest.raises(ValueError, match=">= 1"):
            require_positive_int(0, "x")

    def test_custom_minimum(self):
        assert require_positive_int(2, "x", minimum=2) == 2
        with pytest.raises(ValueError):
            require_positive_int(1, "x", minimum=2)


class TestAsIntArray:
    def test_converts_list(self):
        out = as_int_array([1, 2, 3], "v")
        assert out.dtype == np.intp
        np.testing.assert_array_equal(out, [1, 2, 3])

    def test_accepts_integral_floats(self):
        out = as_int_array(np.array([1.0, 2.0]), "v")
        np.testing.assert_array_equal(out, [1, 2])

    def test_rejects_fractional_floats(self):
        with pytest.raises(TypeError):
            as_int_array(np.array([1.5, 2.0]), "v")

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_int_array(np.zeros((2, 2), dtype=int), "v")


class TestCheckPermutation:
    def test_valid_permutation(self):
        perm = check_permutation([2, 0, 1])
        np.testing.assert_array_equal(perm, [2, 0, 1])

    def test_identity(self):
        perm = check_permutation(np.arange(5), 5)
        np.testing.assert_array_equal(perm, np.arange(5))

    def test_empty(self):
        assert check_permutation([], 0).size == 0

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            check_permutation([0, 1], 3)

    def test_duplicate_entries(self):
        with pytest.raises(ValueError, match="not a permutation"):
            check_permutation([0, 0, 2])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="lie in"):
            check_permutation([0, 1, 3])

    def test_negative_entry(self):
        with pytest.raises(ValueError):
            check_permutation([-1, 0, 1])


class TestCheckSquare:
    def test_dense(self):
        m, n = check_square(np.eye(4))
        assert n == 4

    def test_sparse(self):
        m, n = check_square(sp.eye(6, format="csr"))
        assert n == 6

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError, match="square"):
            check_square(np.zeros((3, 4)))

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            check_square(np.zeros(3))
