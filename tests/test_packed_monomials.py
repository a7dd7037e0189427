"""The packed monomials of the reduction kernel.

Inside the reducer records, the reduction loop and the S-pairs a monomial is
one int of guard-bit fields (`polyring._Packing`).  These tests check the
layout as a property under every order the engine uses, check that a degree
the fields cannot hold trips a guard instead of wrapping, and run the checked
kernel of `test_reduction_kernel` on the system shapes of the benchmark.
"""

from __future__ import annotations

import random
from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from affpi0 import polyring
from affpi0.errors import ResourceLimitError
from affpi0.polyring import (DEGREVLEX, LEX, BlockOrder, GroebnerBasis,
                             Polynomial, elimination_ideal, groebner,
                             monomial_divides, monomial_lcm, monomial_mul,
                             normal_form, poly_parse)
from test_reduction_kernel import (FIELDS, checked_engine,  # noqa: F401
                                   level_two_relations, parent_update,
                                   reference_remainder, same, unpacked)

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow])

BOUND = 1 << (polyring._WIDTH - 1)      # the degrees a packed monomial holds


@cache
def layouts(arity):
    """(order, packing) for every order the engine uses on `arity`
    variables."""
    orders = [DEGREVLEX, LEX] + [BlockOrder(k) for k in range(arity + 1)]
    return [(order, polyring._packing(order, arity)) for order in orders]


def monomial_pairs(arity):
    """(a, b) with a·b of degree below BOUND, so that it packs too; b is a
    multiple of a half of the time."""
    top = (BOUND - 1) // (3 * max(arity, 1))
    exps = st.lists(st.integers(0, top), min_size=arity, max_size=arity)
    return st.tuples(exps, exps, st.booleans()).map(
        lambda t: (tuple(t[0]), tuple(t[1]) if not t[2]
                   else tuple(a + c for a, c in zip(t[0], t[1]))))


@pytest.mark.parametrize("arity", [0, 1, 3, 70])
@PROPERTY
@given(data=st.data())
def test_packing_is_an_order_embedding(arity, data):
    """Under every order: packing is additive, int comparison is the order,
    unpacking inverts it, and the guard test is divisibility."""
    a, b = data.draw(monomial_pairs(arity))
    product = tuple(x + y for x, y in zip(a, b))
    for order, packing in layouts(arity):
        pa, pb = packing.pack(a), packing.pack(b)
        assert pa + pb == packing.pack(product)
        assert not (pa + pb) & packing.guard
        assert (pa < pb, pa == pb) == (order.key(a) < order.key(b), a == b)
        assert packing.unpack(pa) == a and packing.unpack(pb) == b
        assert (not (pb - pa) & packing.guard) == monomial_divides(a, b)
        assert (not (pa - pb) & packing.guard) == monomial_divides(b, a)


# ---------------------------------------------------------------------------
# degrees past the field width


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_product_past_the_field_width_raises_instead_of_wrapping(field):
    """Under lex, x - y^e reduces x to y^e and x² on to y^(2e), whose
    y-field crosses the width (e = 20000 for 16-bit fields)."""
    e = 20000 << (polyring._WIDTH - 16)
    assert e < BOUND <= 2 * e
    x, y = Polynomial.variable(0, 2, field), Polynomial.variable(1, 2, field)
    basis = (x - Polynomial.monomial((0, e), field),)
    lex = GroebnerBasis(basis, LEX)
    assert normal_form(x, lex) == Polynomial.monomial((0, e), field)
    with pytest.raises(ResourceLimitError, match=f"{polyring._WIDTH}-bit"):
        normal_form(x * x, lex)
    # under degrevlex the same reduction lowers the degree
    assert normal_form(x * x, GroebnerBasis(basis, DEGREVLEX)) == x * x


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_degree_past_the_field_width_raises_at_entry(field):
    y = Polynomial.variable(1, 2, field)
    fits = Polynomial.monomial((BOUND - 1, 0), field)
    big = Polynomial.monomial((BOUND, 0), field)
    assert normal_form(fits, GroebnerBasis((y,), DEGREVLEX)) == fits
    for p, basis in ((big, GroebnerBasis((y,), DEGREVLEX)),
                     (y, GroebnerBasis((big,), DEGREVLEX)),
                     (big, groebner([y]))):
        with pytest.raises(ResourceLimitError,
                           match=f"{polyring._WIDTH}-bit"):
            normal_form(p, basis)
    # no reducers: nothing is packed, and p comes back as it is
    assert normal_form(big, GroebnerBasis((), DEGREVLEX)) is big


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_an_lcm_past_the_field_width_raises(field):
    """The pair update packs lcm(lm_i, lm_h): x^e and y^e pack, but their
    lcm x^e·y^e of degree 2e does not, although the product criterion
    would have dropped the pair."""
    e = BOUND // 2
    x_e = Polynomial.monomial((e, 0), field) - Polynomial.one(2, field)
    y_e = Polynomial.monomial((0, e), field) - Polynomial.one(2, field)
    x_less = Polynomial.monomial((e - 1, 0), field) - Polynomial.one(2, field)
    assert len(groebner([x_less, y_e])) == 2
    with pytest.raises(ResourceLimitError, match=f"{polyring._WIDTH}-bit"):
        groebner([x_e, y_e])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_an_s_pair_past_the_field_width_raises(field):
    """Under lex the tail y^a of x·z − y^a has a higher degree than its
    leading monomial.  Neither x·z − y^a nor x·y^b − 1 reduces the other, so
    y^(a+b) first appears when their S-pair is formed, and crosses the width
    (a = 20000, b = 13000 for 16-bit fields)."""
    a, b = 20000 << (polyring._WIDTH - 16), 13000 << (polyring._WIDTH - 16)
    assert a < BOUND and b < BOUND <= a + b
    x, y = Polynomial.variable(0, 3, field), Polynomial.variable(1, 3, field)
    y_a = Polynomial.monomial((0, a, 0), field)
    xz, xy_b = (Polynomial.monomial(m, field) for m in ((1, 0, 1), (1, b, 0)))
    gens = [xz - y_a, xy_b - Polynomial.one(3, field)]
    assert normal_form(gens[1], GroebnerBasis((gens[0],), LEX)) == gens[1]
    with pytest.raises(ResourceLimitError,
                       match=f"S-pair does not fit the {polyring._WIDTH}-bit"):
        groebner(gens, LEX)
    # with x·y − 1 the S-pair's y^(a+1) fits, and trips the degree guard
    with pytest.raises(ResourceLimitError, match=f"degree {a + 1} exceeds"):
        groebner([xz - y_a, x * y - Polynomial.one(3, field)], LEX)


# ---------------------------------------------------------------------------
# the pair update on the exponent fields


def seeded_leading_monomials(rng, packing, count):
    """`count` monomials of three variables that pack under `packing`, with
    exponents 0 to 3 and the largest a field holds, BOUND - 1."""
    out = []
    while len(out) < count:
        m = tuple(rng.choice((0, 0, 0, 1, 1, 2, 3, BOUND - 1))
                  for _ in range(3))
        if not packing.pack(m) & packing.guard:
            out.append(m)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_the_exponent_field_lcm_is_the_tuple_lcm(seed):
    """`_update_pairs` takes lcm(lm_i, lm_h) as a field-wise max of the
    exponent fields and tests equality, strict divisibility and the product
    criterion there; the reference update does all of it on exponent
    tuples.  Inserting seeded leading monomials one by one, both keep the
    same pairs with the same packed lcms, and the update raises, leaving
    the pairs as they were, exactly when a tuple lcm does not pack."""
    rng = random.Random(seed)
    seen = dict.fromkeys(("equal", "coprime", "dropped", "raised"), 0)
    for order in (LEX, DEGREVLEX, BlockOrder(1), BlockOrder(2)):
        packing = polyring._packing(order, 3)
        records, ours, theirs = [], {}, {}
        for lm in seeded_leading_monomials(rng, packing, 30):
            record = (lm, 1, packing.pack(lm), ())
            lcms = [monomial_lcm(r[0], lm) for r in records]
            if any(packing.pack(L) & packing.guard for L in lcms):
                before = dict(ours)
                with pytest.raises(ResourceLimitError,
                                   match=f"{polyring._WIDTH}-bit"):
                    polyring._update_pairs(records, record, ours, order)
                assert ours == before
                seen["raised"] += 1
                continue
            live = len(ours)
            new = polyring._update_pairs(records, record, ours, order)
            assert sorted(new) == sorted(parent_update(records, record,
                                                       theirs, order))
            assert ours == theirs
            seen["equal"] += len(lcms) - len(set(lcms))
            seen["coprime"] += sum(L == monomial_mul(r[0], lm)
                                   for r, L in zip(records, lcms))
            seen["dropped"] += live + len(new) - len(ours)
            records.append(record)
    # every criterion decided some pairs, and the row-field guard tripped
    assert min(seen.values()) > 0, seen


# ---------------------------------------------------------------------------
# the checked kernel on the benchmark's system shapes


KATSURA3 = ["u3*u3 + u2*u2 + u1*u1 + u0*u0 + u1*u1 + u2*u2 + u3*u3 - u0",
            "u2*u3 + u1*u2 + u0*u1 + u1*u0 + u2*u1 + u3*u2 - u1",
            "u1*u3 + u0*u2 + u1*u1 + u2*u0 + u3*u1 - u2",
            "u0 + 2*u1 + 2*u2 + 2*u3 - 1"]

# the curve t -> (f2(t), f3(t), f4(t)), f_d monic of degree d
CURVE = ("t^2 - 3*t + 1", "t^3 + 2*t^2 - t + 4", "t^4 - t^3 + 5*t - 2")


def test_kernel_matches_linear_scan_on_the_benchmark_systems(checked_engine):
    for relations, order in level_two_relations():
        gb = groebner(relations, order)
        p = relations[0] * relations[-1] + relations[1]
        divisors = unpacked(gb._reducers(), polyring._packing(order, p.arity))
        assert same(normal_form(p, gb),
                    reference_remainder(p, divisors, order))
    for field in FIELDS:
        us = ["u0", "u1", "u2", "u3"]
        gens = [poly_parse(s, us, field) for s in KATSURA3]
        gb = groebner(gens, LEX)
        # the lex basis of this zero-dimensional system ends in a
        # univariate polynomial in u3
        assert all(m[:3] == (0, 0, 0) for m in gb.polys[0].terms)
        sextic = poly_parse("(u0 + 2*u1 - u2 + 3*u3 - 1)^3 * (u1 - u3)^3",
                            us, field)
        divisors = unpacked(gb._reducers(), polyring._packing(LEX, 4))
        assert same(normal_form(sextic, gb),
                    reference_remainder(sextic, divisors, LEX))

        # elimination of t runs under BlockOrder(1)
        curve = [poly_parse(f"{v} - ({f})", ["t", "x", "y", "z"], field)
                 for v, f in zip("xyz", CURVE)]
        kept = elimination_ideal(curve, [0])
        images = [poly_parse(f, ["t"], field) for f in CURVE]
        assert kept and all(g.substitute(images).is_zero for g in kept)
    assert checked_engine["reduce"] > 100 and checked_engine["s"] > 100
