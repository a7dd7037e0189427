"""The univariate factoring kernel against sympy's `factor_list` over Z and
over F_2, F_3, F_5, F_7 and F_32003, on derandomized inputs, its Chinese
remainders and root search by brute force, and one test per guard.

Hypothesis runs derandomized with a bounded example count, as in
`tests/test_fuzz.py`, so the suite sees the same inputs on every run.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, given, settings, strategies as st

from affpi0 import factor
from affpi0.errors import PropertyViolationError, ResourceLimitError
from affpi0.polyring import LIMITS, set_limits

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=60,
                suppress_health_check=[HealthCheck.too_slow])

X = sympy.symbols("x")
PRIMES = [2, 3, 5, 7, 32003]


def multiply(factors, p=None):
    """Π g^e over Z, or over F_p, on constant-first lists."""
    out = [1]
    for g, e in factors:
        for _ in range(e):
            prod = [0] * (len(out) + len(g) - 1)
            for i, a in enumerate(out):
                for j, b in enumerate(g):
                    prod[i + j] += a * b
            out = [c % p for c in prod] if p else prod
    while out and not out[-1]:
        out.pop()
    return out


def by_degree(factors):
    return sorted(factors, key=lambda ge: (len(ge[0]), ge[0]))


def sympy_over_z(f):
    """sympy's factorization, each factor with a positive leading
    coefficient, the sign moved into the content."""
    content, factors = sympy.Poly(f[::-1], X).factor_list()
    content, out = int(content), []
    for g, e in factors:
        coeffs = [int(c) for c in g.all_coeffs()[::-1]]
        if coeffs[-1] < 0:
            coeffs = [-c for c in coeffs]
            content *= (-1) ** e
        out.append((coeffs, e))
    return content, by_degree(out)


def sympy_over_fp(f, p):
    lead, factors = sympy.Poly(f[::-1], X, modulus=p).factor_list()
    return int(lead) % p, by_degree(
        [([int(c) % p for c in g.all_coeffs()[::-1]], e) for g, e in factors])


def nonzero(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


small_factors = st.lists(st.tuples(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(nonzero)
    .filter(bool), st.integers(1, 3)), min_size=0, max_size=3)


# ---------------------------------------------------------------------------
# over Z


@FUZZ
@given(small_factors, st.integers(-12, 12).filter(bool))
def test_factor_int_matches_sympy(factors, content):
    f = [content * c for c in multiply(factors)]
    assert factor.factor_int(f) == sympy_over_z(f)


@FUZZ
@given(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=1, max_size=5)
       .map(nonzero).filter(bool),
       st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=1, max_size=3)
       .map(nonzero).filter(bool))
def test_factor_int_matches_sympy_on_large_coefficients(g, h):
    f = multiply([(g, 1), (h, 1)])
    assert factor.factor_int(f) == sympy_over_z(f)


SD2_3 = [1, 0, -10, 0, 1]                       # √2 + √3
SD2_5 = [9, 0, -14, 0, 1]                       # √2 + √5
SD2_3_5 = [576, 0, -960, 0, 352, 0, -40, 0, 1]  # √2 + √3 + √5

EDGE_INPUTS = {
    "constant": [7],
    "negative-constant": [-12],
    "linear": [3, -6],
    "content": [6, 0, -6],
    "x": [0, 1],
    "x-power": [0, 0, 0, 5],
    "square": multiply([([1, 1], 2)]),
    "repeated": multiply([([1, -2, 3], 3), ([-1, 1], 2), ([0, 1], 1)]),
    "x^4+1": [1, 0, 0, 0, 1],
    "swinnerton-dyer-2-3": SD2_3,
    "swinnerton-dyer-2-5": SD2_5,
    "swinnerton-dyer-2-3-5": SD2_3_5,
    "recombined-product": multiply([(SD2_3, 1), (SD2_5, 1), ([-1, 1], 1)]),
    "non-monic-recombination": multiply([([1, 0, 0, 0, 4], 1),
                                         ([5, 0, 3], 1)]),
    "x^8-1": [-1] + [0] * 7 + [1],
}


@pytest.mark.parametrize("name", EDGE_INPUTS)
def test_factor_int_edge_inputs_match_sympy(name):
    f = EDGE_INPUTS[name]
    assert factor.factor_int(f) == sympy_over_z(f)


def test_factor_int_rejects_the_zero_polynomial():
    with pytest.raises(ValueError):
        factor.factor_int([0, 0])


# ---------------------------------------------------------------------------
# over F_p


@pytest.mark.parametrize("p", PRIMES)
@FUZZ
@given(data=st.data())
def test_factor_mod_matches_sympy(p, data):
    residues = st.integers(0, p - 1)
    factors = data.draw(st.lists(st.tuples(
        st.lists(residues, min_size=1, max_size=4).map(nonzero).filter(bool),
        st.integers(1, 3)), max_size=3))
    f = [c * data.draw(st.integers(1, p - 1)) % p
         for c in multiply(factors, p)]
    assert factor.factor_mod(f, p) == sympy_over_fp(f, p)


@pytest.mark.parametrize("p", PRIMES[:4])
def test_factor_mod_of_p_th_powers_matches_sympy(p):
    """The derivative vanishes: f = g(x^p), and x^p·g(x)^p mixes both."""
    g = [1, 2 % p, 0, 1]
    spread = [c if i % p == 0 else 0
              for i, c in enumerate(multiply([(g, p)], p))]
    for f in (nonzero(spread), multiply([([0, 1], p), (g, p + 1)], p),
              multiply([([1, 1], p * p)], p)):
        assert factor.factor_mod(f, p) == sympy_over_fp(f, p)


@pytest.mark.parametrize("p", PRIMES)
def test_factor_mod_of_degree_zero_and_one(p):
    for f in ([1], [p - 1], [p - 1, 1], [1, p - 1], [0, 1]):
        assert factor.factor_mod(f, p) == sympy_over_fp(f, p)


@pytest.mark.parametrize("p", PRIMES)
@FUZZ
@given(data=st.data())
def test_roots_mod_are_the_distinct_roots(p, data):
    f = nonzero(data.draw(st.lists(st.integers(0, p - 1), min_size=1,
                                   max_size=6)))
    if not f:
        f = [1]
    roots = factor.roots_mod(f, p)
    if p < 100:
        assert roots == [r for r in range(p)
                         if sum(c * r ** i for i, c in enumerate(f)) % p == 0]
    else:
        poly = sympy.Poly(f[::-1], X, modulus=p)
        assert roots == sorted(int(r) % p for r in poly.ground_roots())


def test_roots_mod_of_a_split_polynomial():
    roots = [0, 2, 3, 6, 31999]
    f = multiply([([-r, 1], 1) for r in roots], 32003)
    assert factor.roots_mod(f, 32003) == roots
    assert factor.roots_mod([1, 1, 1], 2) == []


def test_roots_mod_checks_each_root(monkeypatch):
    """A planted splitting step that shifts every linear factor is caught:
    x³ − x over F_5 gets no root it does not have."""
    equal_degree = factor._equal_degree
    monkeypatch.setattr(factor, "_equal_degree", lambda g, d, p, rng: [
        [(q[0] + 1) % p, 1] for q in equal_degree(g, d, p, rng)])
    with pytest.raises(PropertyViolationError, match="non-root"):
        factor.roots_mod([0, -1, 0, 1], 5)



def sympy_roots(f):
    return sorted({Fraction(int(r.p), int(r.q))
                   for r in sympy.Poly(f[::-1], X).ground_roots()})


linear_and_quadratic = st.lists(st.tuples(st.one_of(
    st.tuples(st.integers(-9, 9), st.integers(1, 6)).map(list),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 3))
    .map(list)), st.integers(1, 3)), min_size=1, max_size=5)


@FUZZ
@given(linear_and_quadratic, st.integers(-12, 12).filter(bool))
def test_roots_int_matches_sympy(factors, content):
    f = [content * c for c in multiply(factors)]
    assert factor.roots_int(f) == sympy_roots(f)


@pytest.mark.parametrize("name", EDGE_INPUTS)
def test_roots_int_edge_inputs_match_sympy(name):
    f = EDGE_INPUTS[name]
    assert factor.roots_int(f) == (sympy_roots(f) if len(f) > 1 else [])


def test_roots_int_recombines_nothing():
    """41 rational roots, each twice: more linear factors modulo a prime
    than `max_factors` allows, even at its lowest setting."""
    f = multiply([([-i, 3], 2) for i in range(-20, 21)])
    saved = with_limits(max_factors=1)
    try:
        assert factor.roots_int(f) == [Fraction(i, 3) for i in range(-20, 21)]
    finally:
        set_limits(**saved)


def test_roots_int_rejects_the_zero_polynomial():
    with pytest.raises(ValueError):
        factor.roots_int([0])


# ---------------------------------------------------------------------------
# Chinese remainders


def remainder(f, m, p):
    """f mod m, over Q or F_p."""
    f = list(f)
    inv = pow(m[-1], -1, p) if p else Fraction(1, 1) / m[-1]
    for k in range(len(f) - len(m), -1, -1):
        c = f[k + len(m) - 1] * inv
        if p:
            c %= p
        for j, b in enumerate(m):
            f[k + j] -= c * b
            if p:
                f[k + j] %= p
    return nonzero(f[:len(m) - 1])


@pytest.mark.parametrize("p, factors", [
    (None, [([-1, 1], 1), ([1, 1], 1), ([1, 0, 1], 1)]),
    (None, [([0, 1], 2), ([1, 0, 3], 1), ([-1, 2], 1)]),
    (7, [([-r, 1], 1) for r in (0, 2, 5)]),
    (2, [([1, 1], 3), ([1, 1, 1], 1)]),
])
def test_crt_idempotents_are_one_on_their_modulus_and_zero_elsewhere(
        p, factors):
    moduli = [multiply([ge], p) for ge in factors]
    idempotents = factor.crt_idempotents(factors, p)
    for i, e in enumerate(idempotents):
        assert len(e) < sum(len(m) - 1 for m in moduli) + 1
        for j, m in enumerate(moduli):
            want = [1] if i == j else []
            assert remainder(e, m, p) == want


# ---------------------------------------------------------------------------
# guards


def with_limits(**low):
    saved = dict(vars(LIMITS))
    set_limits(**low)
    return saved


def test_max_factors_bounds_the_modular_factors():
    """x^4 + 1 has at least two factors modulo every prime."""
    saved = with_limits(max_factors=1)
    try:
        with pytest.raises(ResourceLimitError, match="max_factors"):
            factor.factor_int([1, 0, 0, 0, 1])
    finally:
        set_limits(**saved)
    assert factor.factor_int([1, 0, 0, 0, 1]) == (1, [([1, 0, 0, 0, 1], 1)])


def test_max_lift_bounds_the_lifting_modulus():
    f = multiply([([-1, 1], 1), ([10 ** 6, 1], 1)])
    saved = with_limits(max_lift=8)
    try:
        with pytest.raises(ResourceLimitError, match="max_lift"):
            factor.factor_int(f)
    finally:
        set_limits(**saved)
    assert factor.factor_int(f) == (1, [([-1, 1], 1), ([10 ** 6, 1], 1)])


def test_every_factorization_is_multiplied_back(monkeypatch):
    """A planted wrong factor is caught by the product check."""
    monkeypatch.setattr(factor, "_zassenhaus", lambda f, p: [[1, 1]])
    with pytest.raises(PropertyViolationError):
        factor.factor_int([2, -3, 1])
