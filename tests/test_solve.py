"""Tests for the exact polynomial-system solver."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from affpi0.polyring import GF, QQ, Polynomial, poly_parse
from affpi0.solve import rational_roots, solve_system


def test_rational_roots():
    assert rational_roots([Fraction(-1), Fraction(0), Fraction(4)]) == \
        [Fraction(-1, 2), Fraction(1, 2)]
    assert rational_roots([Fraction(0), Fraction(-2), Fraction(1)]) == \
        [Fraction(0), Fraction(2)]


def test_rational_roots_with_huge_coefficients():
    """A constant or leading coefficient of 10^20 + 1, whose divisors are
    too many to try one by one: the linear factors over Z answer."""
    n = 10 ** 20 + 1
    assert rational_roots([n, 0, 1]) == []
    assert rational_roots([1, 0, n]) == []
    assert rational_roots([n, -(n + 1), 1]) == [Fraction(1), Fraction(n)]
    assert rational_roots([-2, 2 * n - 1, n]) == [Fraction(-2),
                                                  Fraction(1, n)]


# ---------------------------------------------------------------------------
# solve_system


def P(text, names, field=QQ):
    return poly_parse(text, names, field)


def _points(*rows):
    return [tuple(Fraction(v) for v in row) for row in rows]


def test_products_of_linear_factors_give_their_grid():
    names = ["x", "y"]
    res = solve_system([P("(x - 1)*(x + 2)*(x^2 - 2)", names),
                        P("(y - 3)*(2*y + 1)*(y^2 + 1)", names)], 2, QQ)
    assert res.complete
    assert res.solutions == _points((-2, "-1/2"), (-2, 3), (1, "-1/2"), (1, 3))


@pytest.mark.parametrize("seed", range(12))
def test_seeded_factored_systems_give_their_rational_grid(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    names = [f"x{i}" for i in range(n)]
    gens, roots = [], []
    for v in names:
        rs = sorted({Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(rng.randint(1, 3))})
        factors = [f"({r.denominator}*{v} - ({r.numerator}))" for r in rs]
        if rng.random() < 0.5:     # irreducible: no rational point added
            factors.append(f"({v}^2 + {rng.randint(1, 4)})")
        gens.append(P("*".join(factors), names))
        roots.append(rs)
    # a multiple of a generator changes no zero
    gens.append(gens[0] * P(f"{names[-1]} + 7", names))
    res = solve_system(gens, n, QQ)
    assert res.complete
    assert res.solutions == sorted(itertools.product(*roots))


def test_unique_linear_system_is_complete():
    names = ["x", "y"]
    res = solve_system([P("x + y - 3", names), P("x - y - 1", names)], 2, QQ)
    assert res.complete and res.solutions == _points((2, 1))


def test_underdetermined_linear_system_gives_one_point_flagged_incomplete():
    names = ["x", "y", "z"]
    gens = [P("x + 2*y - z - 3", names), P("y + z - 1/2", names)]
    res = solve_system(gens, 3, QQ)
    assert not res.complete and len(res.solutions) == 1
    assert all(g.evaluate(res.solutions[0]) == 0 for g in gens)


def test_inconsistent_linear_system_is_certified_empty():
    names = ["x", "y"]
    res = solve_system([P("x + y - 1", names), P("2*x + 2*y - 3", names)],
                       2, QQ)
    assert res.complete and res.solutions == []


def test_nonlinear_system_without_an_eliminant_is_incomplete():
    names = ["x", "y"]
    res = solve_system([P("x*y - 1", names)], 2, QQ)
    assert not res.complete and res.solutions == []


def test_free_variable_below_a_root_is_set_to_zero_and_flagged():
    names = ["x", "y"]
    res = solve_system([P("x^2 - x", names)], 2, QQ)
    assert not res.complete and res.solutions == _points((0, 0), (1, 0))


@pytest.mark.parametrize("seed", range(8))
def test_prime_field_systems_match_brute_force(seed):
    rng = random.Random(seed)
    f3 = GF(3)
    n = rng.randint(1, 3)
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            m = tuple(rng.randint(0, 2) for _ in range(n))
            terms[m] = rng.randint(1, 2)
        gens.append(Polynomial(n, f3, terms))
    expected = [pt for pt in itertools.product(range(3), repeat=n)
                if all(g.evaluate(pt) == 0 for g in gens)]
    res = solve_system(gens, n, f3)
    assert res.complete and res.solutions == expected
