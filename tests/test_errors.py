"""The shared exact-integer readers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gaborinv.errors import InvalidParameter, exact_int, exact_ints, read_pair


@pytest.mark.parametrize(
    "value, expected",
    [(3, 3), (3.0, 3), (np.int64(3), 3), (np.float32(3.0), 3), (Fraction(6, 2), 3), (2**70, 2**70)],
)
def test_integral_values_read_as_python_ints(value, expected):
    n = exact_int(value, InvalidParameter, "bad")
    assert type(n) is int and n == expected


@pytest.mark.parametrize(
    "value",
    [1.5, np.float64(2.5), Fraction(3, 2), "3", None, math.nan, math.inf, 3 + 0j, np.array([3])],
    ids=["float", "np-float", "fraction", "str", "none", "nan", "inf", "complex", "array"],
)
def test_non_integral_values_raise_the_given_error(value):
    with pytest.raises(InvalidParameter, match="^bad$"):
        exact_int(value, InvalidParameter, "bad")


@pytest.mark.parametrize(
    "value, low, divides, ok",
    [(2, 2, None, True), (1, 2, None, False), (4, 1, 12, True), (5, 1, 12, False), (-3, 1, 12, False)],
)
def test_lower_bound_and_divisor(value, low, divides, ok):
    if ok:
        assert exact_int(value, ValueError, "bad", low, divides) == value
    else:
        with pytest.raises(ValueError, match="^bad$"):
            exact_int(value, ValueError, "bad", low, divides)


def test_shaped_form_reads_pairs_and_matrices():
    assert exact_ints(np.array([[1, 2], [3.0, 4]]), (2, 2), ValueError, "bad") == ((1, 2), (3, 4))
    assert exact_ints((4.0, np.int64(6)), (2,), ValueError, "bad", 1, 12) == (4, 6)
    # b"12" used to read as the pair (49, 50)
    for values, shape in [
        ((1, 2, 3), (2,)), (((1, 2), (3,)), (2, 2)), ("12", (2,)), (b"12", (2,)), (5, (2,))
    ]:
        with pytest.raises(ValueError, match="^bad$"):
            exact_ints(values, shape, ValueError, "bad")


@pytest.mark.parametrize(
    "value", [(1, 2), [1, 2], np.array([1.0, 2.0]), iter("ab"), (x for x in ("x", None))],
    ids=["tuple", "list", "array", "iterator", "generator"],
)
def test_any_iterable_of_two_is_a_pair(value):
    assert len(read_pair(value, "bad")) == 2


@pytest.mark.parametrize(
    "value",
    ["12", b"12", "", 5, None, (), (1,), (0, 0, 5), np.float64(1.0), np.zeros((3, 2))],
    ids=["str", "bytes", "empty-str", "int", "none", "empty", "single", "triple", "scalar",
         "3x2"],
)
def test_other_values_are_not_pairs(value):
    with pytest.raises(InvalidParameter, match="^bad$"):
        read_pair(value, "bad")
