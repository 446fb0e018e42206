"""Tests for repro.util.validation."""

import numpy as np
import pytest

from repro.util.validation import (
    check_count,
    check_in_range,
    check_int_in,
    check_non_negative,
    check_positive,
    check_power_of_two,
    check_probability,
)


def test_check_positive():
    assert check_positive("x", 1.5) == 1.5
    for bad in (0, -1):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", bad)


def test_check_count():
    for good in (1, 240, np.int64(3)):
        assert check_count("n", good) == good
    for bad in (0, -2, True, np.True_, 2.5, 4.0, np.float64(3.0), "3", None):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            check_count("n", bad)


def test_check_non_negative():
    assert check_non_negative("x", 0.0) == 0.0
    with pytest.raises(ValueError):
        check_non_negative("x", -1e-9)


def test_check_in_range_inclusive():
    assert check_in_range("x", 0.0, 0.0, 1.0) == 0.0
    assert check_in_range("x", 1.0, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        check_in_range("x", 1.0001, 0.0, 1.0)


def test_check_probability():
    assert check_probability("p", 0.5) == 0.5
    with pytest.raises(ValueError):
        check_probability("p", 1.5)


def test_check_power_of_two():
    for good in (1, 2, 4, 1024):
        assert check_power_of_two("n", good) == good
    for bad in (0, 3, -4, 6):
        with pytest.raises(ValueError):
            check_power_of_two("n", bad)


def test_check_int_in():
    assert check_int_in("k", 3, (3, 5, 7)) == 3
    with pytest.raises(ValueError):
        check_int_in("k", 4, (3, 5, 7))
