"""Differential tests of the reduction kernel against a linear-scan division.

`reference_remainder` is the division the kernel replaced: every divisor in
list order is tried with `monomial_divides`, and the field arithmetic goes
through `FieldDescriptor` in `Fraction`s over Q, where the kernel computes in
integers under one scale.  The kernel must pick the same reducer for every
term, so remainders agree term by term, insertion order and coefficient type
included, and so do the bases that `groebner` builds from them.  Each S-pair
`groebner` forms on packed records and reduces must, made monic, be the
remainder of the tuple S-polynomial (`reference_s_polynomial`), made monic.
`reference_update_pairs` is the Gebauer-Möller update on exponent tuples
that the packed one replaced; both must give the same S-pair sequence.
Every record the kernel divides by is normalized one way: primitive with a
positive leading coefficient over Q, monic over F_p.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from heapq import heapify, heappop, heappush
from types import SimpleNamespace

import pytest

from affpi0 import polyring
from affpi0.algebra import AlgebraPresentation
from affpi0.mapspace import mapspace_presentation
from affpi0.polyring import (DEGREVLEX, GF, LEX, QQ, BlockOrder,
                             GroebnerBasis, Polynomial, groebner, monomial_div,
                             monomial_divides, monomial_lcm, monomial_mul,
                             normal_form)
from harnesses import reference_s_polynomial

FIELDS = (QQ, GF(32003))

# fractional, negative and non-monic coefficients; denominators 2, 3, 7, 10
FRACTIONAL = (Fraction(-7, 2), Fraction(1, 3), Fraction(-5, 7),
              Fraction(3, 10), Fraction(-9, 10), Fraction(2, 3), -3, 4)


def descending(key):
    """A sort key whose ascending order is that of `key` descending: every
    int in the (nested) key negated."""
    if isinstance(key, int):
        return -key
    return tuple(map(descending, key))


def reference_remainder(p, records, order):
    """Linear-scan division of p by records (lm, lc, tail), whose
    coefficients are read as field scalars: the leading data of a divisor,
    or an unpacked kernel record (`unpacked`), which over Q is an integer
    multiple of it.  Any `order` with a `key` will do."""
    if not records:
        return p
    f = p.field
    zero = f.zero()
    work = dict(p.terms)
    queue = [(descending(order.key(m)), m) for m in work]
    heapify(queue)
    result = {}
    while queue:
        m = heappop(queue)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for lm, lc, tail in records:
            if monomial_divides(lm, m):
                q = monomial_div(m, lm)
                factor = f.div(c, f.scalar(lc))
                for gm, gc in tail:
                    mm = monomial_mul(gm, q)
                    old = work.get(mm)
                    v = f.sub(zero if old is None else old,
                              f.mul(factor, f.scalar(gc)))
                    if v == zero:
                        if old is not None:
                            del work[mm]
                    else:
                        if old is None:
                            heappush(queue,
                                     (descending(order.key(mm)), mm))
                        work[mm] = v
                break
        else:
            result[m] = c
    return Polynomial(p.arity, f, result)


def reference_update_pairs(G, lmG, P, queue, h, order):
    """The Gebauer-Möller update on exponent tuples: it copies the live
    pairs and recomputes lcm(lm_i, lm_h) for each test."""
    lmh = h.leading_monomial(order)
    t = len(G)
    for (i, j), lcm_ij in list(P.items()):
        if (monomial_divides(lmh, lcm_ij)
                and monomial_lcm(lmG[i], lmh) != lcm_ij
                and monomial_lcm(lmG[j], lmh) != lcm_ij):
            del P[i, j]
    lcm_groups = {}
    for i in range(t):
        lcm_groups.setdefault(monomial_lcm(lmG[i], lmh), []).append(i)
    minimal = []
    for L in sorted(lcm_groups, key=order.key):
        if all(not monomial_divides(L2, L) for L2 in minimal):
            minimal.append(L)
    for L in minimal:
        if any(monomial_lcm(lmG[i], lmh) == monomial_mul(lmG[i], lmh)
               for i in lcm_groups[L]):
            continue
        pair = (min(lcm_groups[L]), t)
        P[pair] = L
        heappush(queue, (order.key(L), pair))
    G.append(h)
    lmG.append(lmh)


def records(basis, order):
    """The divisors' leading data (lm, lc, tail), in Fractions over Q."""
    out = []
    for g in basis:
        lm = g.leading_monomial(order)
        out.append((lm, g.terms[lm],
                    [(m, c) for m, c in g.terms.items() if m != lm]))
    return out


def unpacked(reducers, packing):
    """Kernel records (lm, lc, packed lm, packed tail) as (lm, lc, tail)
    on exponent tuples."""
    return [(lm, lc, [(packing.unpack(m), c) for m, c in tail])
            for lm, lc, _, tail in reducers]


def packed_order(packing):
    """The order of `packing` as a sort key: packed ints compare as the
    monomial order does."""
    return SimpleNamespace(key=packing.pack)


def field_of(modulus):
    return QQ if modulus is None else GF(modulus)


def packed_polynomial(terms, packing, field):
    """A polynomial from (packed monomial, coefficient, scale) triples, or
    a record's (packed monomial, coefficient) pairs: over Q the `Fraction`
    c/scale, or c itself without a scale; over F_p the residue as it is."""
    out = {}
    for m, c, *scale in terms:
        if field.is_rational:
            c = Fraction(c, scale[0] if scale else 1)
        out[packing.unpack(m)] = c
    return Polynomial(len(packing.units), field, out)


def record_polynomial(record, packing, field):
    """The integer multiple of a basis element that a kernel record holds."""
    lm, lc, plm, tail = record
    return packed_polynomial([(plm, lc), *tail], packing, field)


def check_s_remainder(out, reducers, i, j, lcm, packing, modulus):
    """The S-pair remainder `out` of records i and j, made monic, is the
    linear-scan remainder of their tuple S-polynomial, made monic."""
    field, order = field_of(modulus), packed_order(packing)
    (lm_i, *_), (lm_j, *_) = reducers[i], reducers[j]
    assert lcm == packing.pack(monomial_lcm(lm_i, lm_j))
    s = reference_s_polynomial(record_polynomial(reducers[i], packing, field),
                               lm_i,
                               record_polynomial(reducers[j], packing, field),
                               lm_j)
    expected = reference_remainder(s, unpacked(reducers, packing), order)
    got = packed_polynomial(out, packing, field)
    assert same(got.monic(order), expected.monic(order))


def normalized(record, modulus):
    """Whether a kernel record is monic over F_p, and primitive with a
    positive leading coefficient over Q."""
    _, lc, _, tail = record
    if modulus is not None:
        return lc == 1
    return lc > 0 and gcd(lc, *[c for _, c in tail]) == 1


def typed(p):
    """Whether every coefficient has the field's type: Fraction over Q,
    int over F_p."""
    kind = Fraction if p.field.is_rational else int
    return all(type(c) is kind for c in p.terms.values())


def same(p, q):
    """Equal as term lists: monomials, coefficients with their types, and
    insertion order."""
    return (p.arity, p.field, [(m, type(c), c) for m, c in p.terms.items()]) \
        == (q.arity, q.field, [(m, type(c), c) for m, c in q.terms.items()])


@pytest.fixture
def checked_engine(monkeypatch):
    """Every run of the reduction loop, in `normal_form` and inside
    `groebner`, and every S-pair remainder is checked against the
    reference, and every record the loop divides by is checked to be
    normalized; yields the number of checks made."""
    kernel, s_remainder = polyring._divide, polyring._s_remainder
    calls = {"reduce": 0, "s": 0}

    def divide(work, scale, reducers, packing, modulus):
        assert all(normalized(r, modulus) for r in reducers)
        field = field_of(modulus)
        # largest first, the order of a remainder, also of one by no record
        p = packed_polynomial(sorted([(m, c, scale) for m, c in work.items()],
                                     reverse=True), packing, field)
        expected = reference_remainder(p, unpacked(reducers, packing),
                                       packed_order(packing))
        out = kernel(work, scale, reducers, packing, modulus)
        assert same(packed_polynomial(out, packing, field), expected)
        calls["reduce"] += 1
        return out

    def s_pair(reducers, i, j, lcm, packing, modulus):
        out = s_remainder(reducers, i, j, lcm, packing, modulus)
        check_s_remainder(out, reducers, i, j, lcm, packing, modulus)
        calls["s"] += 1
        return out

    monkeypatch.setattr(polyring, "_divide", divide)
    monkeypatch.setattr(polyring, "_s_remainder", s_pair)
    return calls


def random_poly(rng, field, arity, nterms, maxdeg, variables=None,
                mindeg=0, coeffs=(-7, -3, -1, 1, 2, 5, 9)):
    variables = variables or range(arity)
    terms = {}
    for _ in range(nterms):
        m = [0] * arity
        for _ in range(rng.randint(mindeg, maxdeg)):
            m[rng.choice(variables)] += 1
        terms[tuple(m)] = field.scalar(rng.choice(coeffs))
    return Polynomial(arity, field, terms)


def cases(seed, count, arity, variables=None, coeffs=(-7, -3, -1, 1, 2, 5, 9)):
    """Seeded (field, order, generators, polynomials to reduce)."""
    rng = random.Random(seed)
    orders = (DEGREVLEX, LEX, BlockOrder(1))
    for k in range(count):
        field = FIELDS[k % 2]
        order = orders[k % 3]
        gens = [random_poly(rng, field, arity, rng.randint(2, 4),
                            rng.randint(1, 3), variables, mindeg=1,
                            coeffs=coeffs)
                for _ in range(rng.randint(2, 3))]
        polys = [random_poly(rng, field, arity, 6, 5, variables,
                             coeffs=coeffs)
                 for _ in range(2)]
        yield field, order, gens, polys


def all_cases():
    """The seeded cases of the tests below, integral and fractional."""
    for arity in (2, 3, 4):
        yield from cases(arity, 60, arity)
        yield from cases(100 + arity, 60, arity, coeffs=FRACTIONAL)


def check_cases(checked_engine, seeded):
    for field, order, gens, polys in seeded:
        gb = groebner(gens, order)
        assert all(typed(g) for g in gb)
        lms = [g.leading_monomial(order) for g in gb]
        assert gb.leading_monomials == tuple(lms)
        assert lms == sorted(lms, key=order.key)
        for p in polys:
            # a reduced basis, and the non-monic generators it came from
            assert same(normal_form(p, gb),
                        reference_remainder(p, records(gb, order), order))
            assert same(normal_form(p, GroebnerBasis(tuple(gens), order)),
                        reference_remainder(p, records(gens, order), order))
        # a record does not depend on the scalar multiple it is built from
        for g in gens:
            for c in (3, Fraction(-2, 5)):
                assert GroebnerBasis((g,), order)._reducers() \
                    == GroebnerBasis((g.scale(c),), order)._reducers()
    # the engine really went through the checked kernel
    assert checked_engine["reduce"] > 0 and checked_engine["s"] > 0


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_kernel_matches_linear_scan(checked_engine, arity):
    check_cases(checked_engine, cases(arity, 60, arity))


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_kernel_matches_linear_scan_fractional(checked_engine, arity):
    """Fractional, negative and non-monic leading coefficients."""
    check_cases(checked_engine,
                cases(100 + arity, 60, arity, coeffs=FRACTIONAL))


# 70 variables, the busy ones on both sides of variable 64: packed
# monomials and their guard masks are ints of over a thousand bits
WIDE = [0, 5, 63, 64, 65, 69]


def test_masks_wider_than_a_machine_word(checked_engine):
    for field, order, gens, polys in cases(70, 12, 70, WIDE):
        gb = groebner(gens, order)
        for p in polys:
            assert same(normal_form(p, gb),
                        reference_remainder(p, records(gb, order), order))
    assert checked_engine["s"] > 0


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_ring_without_variables(checked_engine, field):
    three = Polynomial.constant(3, 0, field)
    assert same(normal_form(three, GroebnerBasis((), DEGREVLEX)), three)
    gb = groebner([three])
    assert [list(g.terms.items()) for g in gb] == [[((), field.one())]]
    assert normal_form(three, gb).is_zero
    assert same(normal_form(three, groebner([])), three)


def test_basis_tables_are_kept_per_order(checked_engine):
    """One set of divisors, reduced under several orders in turn, reduces as
    fresh copies do; each basis builds its table once."""
    for field, _, gens, polys in cases(7, 10, 3):
        gb = groebner(gens, DEGREVLEX)
        for order in (LEX, DEGREVLEX, LEX):
            basis = GroebnerBasis(gb.polys, order)
            fresh = GroebnerBasis(tuple(Polynomial(3, field, dict(g.terms))
                                        for g in gb), order)
            for p in polys:
                assert same(normal_form(p, basis),
                            reference_remainder(p, records(gb, order), order))
                assert same(normal_form(p, basis), normal_form(p, fresh))
            assert basis._reducers() is basis._reducers()


def s_pair_sequence(monkeypatch, gens, order, update):
    """The S-pairs `groebner` forms, in order, under a pair update, as the
    records of their two elements."""
    seen = []
    s_remainder = polyring._s_remainder

    def spy(reducers, i, j, lcm, packing, modulus):
        seen.append((reducers[i], reducers[j]))
        return s_remainder(reducers, i, j, lcm, packing, modulus)

    with monkeypatch.context() as patch:
        patch.setattr(polyring, "_s_remainder", spy)
        patch.setattr(polyring, "_update_pairs", update)
        gb = groebner(gens, order)
    return seen, gb


def parent_update(records, record, P, order):
    """The reference update behind the kernel's calling convention: `P`
    maps each pair to its packed lcm, which `groebner` builds the S-pair
    from, and the pairs the update queued are returned."""
    packing = polyring._packing(order, len(record[0]))
    h = Polynomial.monomial(record[0], QQ)
    lcms = {pair: packing.unpack(L) for pair, L in P.items()}
    queue = []
    reference_update_pairs([None] * len(records), [r[0] for r in records],
                           lcms, queue, h, order)
    P.clear()
    P.update({pair: packing.pack(L) for pair, L in lcms.items()})
    return [pair for _, pair in queue]


def level_two_relations():
    for relation in ("x^2 + y^2 - 1", "y^2 - x^3"):     # circle, cusp
        for field in FIELDS:
            a = AlgebraPresentation(field, ["x", "y"], [relation])
            level = mapspace_presentation(
                a, AlgebraPresentation(field, ["t"], []), 2).algebra
            yield level.relations, DEGREVLEX


def s_pair_systems():
    """(generators, order): every seeded case, the 70-variable systems and
    the level-2 map-space rings."""
    yield from ((gens, order) for _, order, gens, _ in all_cases())
    yield from ((gens, order) for _, order, gens, _ in cases(70, 12, 70, WIDE))
    yield from level_two_relations()


def test_s_pair_remainders_match_the_reference(monkeypatch):
    """Each S-pair `groebner` builds on packed records and reduces is, made
    monic, the linear-scan remainder of the tuple S-polynomial of its two
    elements, made monic."""
    s_remainder = polyring._s_remainder
    checked = []

    def spy(reducers, i, j, lcm, packing, modulus):
        out = s_remainder(reducers, i, j, lcm, packing, modulus)
        check_s_remainder(out, reducers, i, j, lcm, packing, modulus)
        checked.append(bool(out))
        return out

    monkeypatch.setattr(polyring, "_s_remainder", spy)
    for gens, order in s_pair_systems():
        groebner(gens, order)
    # both kinds of remainder were seen, and many of each
    assert checked.count(True) > 100 and checked.count(False) > 100


def test_pair_update_keeps_the_s_pair_sequence(monkeypatch):
    for gens, order in s_pair_systems():
        ours, gb = s_pair_sequence(monkeypatch, gens, order,
                                   polyring._update_pairs)
        theirs, ref = s_pair_sequence(monkeypatch, gens, order, parent_update)
        assert ours == theirs
        assert [same(g, r) for g, r in zip(gb, ref)] == [True] * len(ref)
    # the map-space rings need real pair pruning
    assert len(ours) > 10


def test_a_normal_form_against_groebner_output_builds_no_record(
        monkeypatch):
    """`groebner` hands the records it built to the basis it returns, so a
    normal form against that basis builds none, and they are the records a
    fresh build gives: over Q with fractional inputs too, where a record
    built from a remainder is its primitive part with a positive leading
    coefficient."""
    built = []
    record = Polynomial._record

    def spy(g, order):
        built.append(g)
        return record(g, order)

    seeded = [*cases(9, 12, 3), *cases(103, 12, 3, coeffs=FRACTIONAL)]
    for field, order, gens, polys in seeded:
        gb = groebner(gens, order)
        with monkeypatch.context() as patch:
            patch.setattr(Polynomial, "_record", spy)
            for p in polys:
                normal_form(p, gb)
        assert built == []
        assert gb._reducers() == [g._record(order) for g in gb]
