"""Differential tests of the reduction kernel against a linear-scan division.

`reference_remainder` is the division the kernel replaced: every divisor in
list order is tried with `monomial_divides`, and the field arithmetic goes
through `FieldDescriptor`.  The kernel must pick the same reducer for every
term, so remainders agree term by term, insertion order included, and so do
the S-polynomials and bases that `groebner` builds from them.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush

import pytest

from affpi0 import polyring
from affpi0.polyring import (DEGREVLEX, GF, LEX, QQ, BlockOrder, Polynomial,
                             groebner, monomial_div, monomial_divides,
                             monomial_lcm, monomial_mul, normal_form)

FIELDS = (QQ, GF(32003))


def reference_remainder(p, records, order):
    """Linear-scan division of p by records (lm, lc, tail, ...)."""
    if not records:
        return p
    f = p.field
    zero = f.zero()
    work = dict(p.terms)
    queue = [(order._heap_key(m), m) for m in work]
    heapify(queue)
    result = {}
    while queue:
        m = heappop(queue)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for lm, lc, tail, *_ in records:
            if monomial_divides(lm, m):
                q = monomial_div(m, lm)
                factor = f.div(c, lc)
                for gm, gc in tail:
                    mm = monomial_mul(gm, q)
                    old = work.get(mm)
                    v = f.sub(zero if old is None else old, f.mul(factor, gc))
                    if v == zero:
                        if old is not None:
                            del work[mm]
                    else:
                        if old is None:
                            heappush(queue, (order._heap_key(mm), mm))
                        work[mm] = v
                break
        else:
            result[m] = c
    return Polynomial(p.arity, f, result)


def reference_s_polynomial(g1, g2, order):
    lm1, lm2 = g1.leading_monomial(order), g2.leading_monomial(order)
    lcm = monomial_lcm(lm1, lm2)
    f = g1.field
    a = g1.mul_monomial(monomial_div(lcm, lm1), f.inv(g1.leading_coeff(order)))
    b = g2.mul_monomial(monomial_div(lcm, lm2), f.inv(g2.leading_coeff(order)))
    return a - b


def records(basis, order):
    return [g._leading(order)[1:] for g in basis if not g.is_zero]


def same(p, q):
    """Equal as term lists: monomials, coefficients and insertion order."""
    return (p.arity, p.field, list(p.terms.items())) == \
        (q.arity, q.field, list(q.terms.items()))


@pytest.fixture
def checked_engine(monkeypatch):
    """Every kernel reduction and S-polynomial inside the engine is checked
    against the reference; yields the number of checks made."""
    kernel, s_poly = polyring._reduce, polyring._s_polynomial
    calls = {"reduce": 0, "s": 0}

    def reduce(p, reducers, order):
        out = kernel(p, reducers, order)
        assert same(out, reference_remainder(p, reducers, order))
        calls["reduce"] += 1
        return out

    def s_polynomial(g1, g2, order):
        out = s_poly(g1, g2, order)
        assert same(out, reference_s_polynomial(g1, g2, order))
        calls["s"] += 1
        return out

    monkeypatch.setattr(polyring, "_reduce", reduce)
    monkeypatch.setattr(polyring, "_s_polynomial", s_polynomial)
    return calls


def random_poly(rng, field, arity, nterms, maxdeg, variables=None,
                mindeg=0):
    variables = variables or range(arity)
    terms = {}
    for _ in range(nterms):
        m = [0] * arity
        for _ in range(rng.randint(mindeg, maxdeg)):
            m[rng.choice(variables)] += 1
        terms[tuple(m)] = field.scalar(rng.choice([-7, -3, -1, 1, 2, 5, 9]))
    return Polynomial(arity, field, terms)


def cases(seed, count, arity, variables=None):
    """Seeded (field, order, generators, polynomials to reduce)."""
    rng = random.Random(seed)
    orders = (DEGREVLEX, LEX, BlockOrder(1))
    for k in range(count):
        field = FIELDS[k % 2]
        order = orders[k % 3]
        gens = [random_poly(rng, field, arity, rng.randint(2, 4),
                            rng.randint(1, 3), variables, mindeg=1)
                for _ in range(rng.randint(2, 3))]
        polys = [random_poly(rng, field, arity, 6, 5, variables)
                 for _ in range(2)]
        yield field, order, gens, polys


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_kernel_matches_linear_scan(checked_engine, arity):
    for field, order, gens, polys in cases(arity, 60, arity):
        gb = groebner(gens, order)
        for p in polys:
            # a reduced basis, and the non-monic plain list it came from
            assert same(normal_form(p, gb),
                        reference_remainder(p, records(gb, order), order))
            assert same(normal_form(p, gens, order),
                        reference_remainder(p, records(gens, order), order))
    # the engine really went through the checked kernel
    assert checked_engine["reduce"] > 0 and checked_engine["s"] > 0


def test_masks_wider_than_a_machine_word(checked_engine):
    # 70 variables, the busy ones on both sides of bit 64
    variables = [0, 5, 63, 64, 65, 69]
    for field, order, gens, polys in cases(70, 12, 70, variables):
        gb = groebner(gens, order)
        for p in polys:
            assert same(normal_form(p, gb),
                        reference_remainder(p, records(gb, order), order))
    assert checked_engine["s"] > 0
    assert polyring._support_mask((0,) * 64 + (1,) + (0,) * 4 + (2,)) == \
        (1 << 64) | (1 << 69)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_ring_without_variables(checked_engine, field):
    three = Polynomial.constant(3, 0, field)
    assert same(normal_form(three, []), three)
    gb = groebner([three])
    assert [list(g.terms.items()) for g in gb] == [[((), field.one())]]
    assert normal_form(three, gb).is_zero
    assert same(normal_form(three, groebner([])), three)


def test_basis_tables_are_kept_per_order(checked_engine):
    for field, _, gens, polys in cases(7, 10, 3):
        gb = groebner(gens, DEGREVLEX)
        for order in (LEX, DEGREVLEX, LEX):
            for p in polys:
                assert same(normal_form(p, gb, order),
                            reference_remainder(p, records(gb, order), order))
        assert gb._table[0] == LEX
        assert gb._reducers(LEX) is gb._table[1]
