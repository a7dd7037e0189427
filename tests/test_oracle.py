"""Differential tests of the Gröbner engine against sympy, an offline oracle.

Random ideals are drawn from a fixed seed.  Reduced Gröbner bases and
remainders modulo a Gröbner basis are unique, so the engine must agree with
`sympy.groebner` and `sympy.reduced` exactly, not just up to ideal equality.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from affpi0.polyring import (DEGREVLEX, GF, LEX, QQ, BlockOrder,
                             GroebnerBasis, Polynomial, elimination_ideal,
                             groebner, normal_form)
from affpi0.solve import solve_system

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x0:3")
SYMPY_ORDER = {"degrevlex": "grevlex", "lex": "lex"}
FIELDS = (QQ, GF(32003))


def _domain(field):
    return {"domain": sympy.QQ} if field.is_rational else {"modulus": field.p}


def to_sympy(p: Polynomial, gens=X):
    out = sympy.Integer(0)
    for m, c in p.terms.items():
        c = sympy.Rational(c.numerator, c.denominator) \
            if isinstance(c, Fraction) else sympy.Integer(c)
        out += c * sympy.Mul(*(g ** e for g, e in zip(gens, m)))
    return out


def from_sympy(expr, field, gens=X) -> Polynomial:
    terms = {}
    for m, c in sympy.Poly(expr, *gens, **_domain(field)).terms():
        if c == 0:      # the zero polynomial has one zero term in sympy
            continue
        if field.is_rational:
            c = sympy.Rational(c)
            terms[m] = Fraction(int(c.p), int(c.q))
        else:
            terms[m] = int(c) % field.p
    return Polynomial(len(gens), field, terms)


def random_poly(rng, field, arity=3, nterms=3, maxdeg=3) -> Polynomial:
    """No constant term, so the random ideals stay proper."""
    terms = {}
    for _ in range(nterms):
        m = [0] * arity
        for _ in range(rng.randint(1, maxdeg)):
            m[rng.randrange(arity)] += 1
        terms[tuple(m)] = field.scalar(rng.choice([-3, -2, -1, 1, 2, 5]))
    return Polynomial(arity, field, terms)


def random_ideals(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        field = FIELDS[k % 2]
        gens = [random_poly(rng, field, nterms=rng.randint(2, 3),
                            maxdeg=rng.randint(1, 3))
                for _ in range(rng.randint(2, 3))]
        yield rng, field, gens


def sympy_basis(exprs, field, order_name, symbols=X):
    gb = sympy.groebner(exprs, *symbols, order=order_name, **_domain(field))
    return list(gb.exprs)


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
def test_groebner_and_normal_form_match_sympy(order):
    for rng, field, gens in random_ideals(11, 16):
        ours = groebner(gens, order)
        theirs = sympy_basis([to_sympy(g) for g in gens], field,
                             SYMPY_ORDER[order.name])
        expected = sorted((from_sympy(e, field).monic(order) for e in theirs),
                          key=lambda q: order.key(q.leading_monomial(order)))
        assert list(ours.polys) == expected, [str(g) for g in gens]
        for _ in range(3):
            p = random_poly(rng, field, nterms=5, maxdeg=4)
            _, rem = sympy.reduced(to_sympy(p), theirs, *X,
                                   order=SYMPY_ORDER[order.name],
                                   **_domain(field))
            assert normal_form(p, ours) == from_sympy(rem, field)


@pytest.mark.parametrize("eliminate", [[0], [1]])
def test_elimination_ideal_matches_sympy_lex_elimination(eliminate):
    for _, field, gens in random_ideals(23, 8):
        kept = [x for i, x in enumerate(X) if i not in eliminate]
        lex_gens = [x for x in X if x not in kept] + kept
        full = sympy_basis([to_sympy(g) for g in gens], field, "lex",
                           lex_gens)
        theirs = [e for e in full if not e.free_symbols & set(lex_gens[:1])]
        ours = elimination_ideal(gens, eliminate)
        # the block order gives a degrevlex basis of the elimination ideal;
        # its reduced lex basis must be sympy's
        ours_lex = (sympy_basis([to_sympy(g, kept) for g in ours], field,
                                "lex", kept) if ours else [])
        assert ours_lex == theirs, [str(g) for g in gens]


def test_leading_data_memo_is_keyed_by_order():
    """One divisor list reused under three orders reduces as fresh copies do."""
    rng = random.Random(5)
    for field in FIELDS:
        # degrevlex leads with x1^3, lex and block1 with x0
        divisors = [from_sympy(X[1] ** 3 + X[0] + 1, field),
                    from_sympy(X[0] ** 2 * X[2] - X[1] ** 2, field)]
        divisors += [random_poly(rng, field) for _ in range(2)]
        divisors = [g for g in divisors if not g.is_zero]
        for order in (DEGREVLEX, LEX, BlockOrder(1), DEGREVLEX):
            basis = GroebnerBasis(tuple(divisors), order)
            for _ in range(4):
                p = random_poly(rng, field, nterms=6, maxdeg=5)
                fresh = [Polynomial(3, field, dict(g.terms)) for g in divisors]
                assert (normal_form(p, basis)
                        == normal_form(p, GroebnerBasis(tuple(fresh), order)))
            for g in divisors:
                lm = max(g.terms, key=order.key)
                assert g.leading_monomial(order) == lm
                assert g.leading_coeff(order) == g.terms[lm]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("relation", ["x^2 + y^2 - 1", "y^2 - x^3"],
                         ids=["circle", "cusp"])
def test_level_two_map_space_bases_match_sympy(relation, field):
    """The 6-variable bases of M_2(A, F[t]) that the map-space routes read."""
    from affpi0.algebra import AlgebraPresentation
    from affpi0.mapspace import mapspace_presentation

    a = AlgebraPresentation(field, ["x", "y"], [relation])
    level = mapspace_presentation(
        a, AlgebraPresentation(field, ["t"], []), 2).algebra
    z = sympy.symbols(f"z0:{len(level.vars)}")
    assert len(z) == 6
    theirs = sympy_basis([to_sympy(r, z) for r in level.relations], field,
                         "grevlex", z)
    expected = sorted((from_sympy(e, field, z).monic() for e in theirs),
                      key=lambda q: DEGREVLEX.key(q.leading_monomial()))
    assert list(level.gb().polys) == expected


@pytest.mark.parametrize("seed", range(10))
def test_rational_zeros_match_sympy_solve_poly_system(seed):
    """Seeded zero-dimensional systems over Q: each variable has a
    univariate generator (rational roots times an optional quadratic with
    irrational or complex roots), and a random generator through one grid
    point cuts the grid."""
    rng = random.Random(seed)
    n = rng.randint(2, 3)
    gens_ = X[:n]
    exprs, point = [], []
    for g in gens_:
        roots = [sympy.Rational(rng.randint(-4, 4), rng.randint(1, 2))
                 for _ in range(rng.randint(1, 3))]
        e = sympy.Mul(*(g - r for r in roots))
        if rng.random() < 0.5:
            e *= g ** 2 - rng.choice([-1, 2, 3])
        exprs.append(sympy.expand(e))
        point.append(rng.choice(roots))
    monos = (*gens_, gens_[0] * gens_[-1])
    cut = sum(rng.randint(-2, 2) * (m - m.subs(dict(zip(gens_, point))))
              for m in monos)
    if cut != 0 and rng.random() < 0.7:
        exprs.append(sympy.expand(cut))
    theirs = sorted({tuple(Fraction(int(v.p), int(v.q)) for v in sol)
                     for sol in sympy.solve_poly_system(exprs, *gens_)
                     if all(v.is_rational for v in sol)})
    ours = solve_system([from_sympy(e, QQ, gens_) for e in exprs], n, QQ)
    assert ours.complete and ours.solutions == theirs
    assert tuple(Fraction(int(v.p), int(v.q)) for v in point) in theirs
