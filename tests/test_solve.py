"""Tests for the exact polynomial-system solver."""

from __future__ import annotations

from fractions import Fraction

import pytest

from affpi0.errors import ResourceLimitError
from affpi0.solve import rational_roots


def test_rational_roots():
    assert rational_roots([Fraction(-1), Fraction(0), Fraction(4)]) == \
        [Fraction(-1, 2), Fraction(1, 2)]
    assert rational_roots([Fraction(0), Fraction(-2), Fraction(1)]) == \
        [Fraction(0), Fraction(2)]


def test_rational_roots_guard_trips_before_enumerating():
    with pytest.raises(ResourceLimitError, match="SOLVE_GUARD"):
        rational_roots([10 ** 20 + 1, 0, 1])
    with pytest.raises(ResourceLimitError, match="leading coefficient"):
        rational_roots([1, 0, 10 ** 20 + 1])
