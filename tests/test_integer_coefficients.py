"""Integer coefficients above the engine: the substitution kernel, the
fraction-free RREF and the integer root test.

Each is compared with a copy, kept here, of the `Fraction`-level code it
replaced: the same values, the same entry types, and the same guard trips.
Hypothesis runs derandomized with a bounded example count, so the suite
sees the same inputs on every run.  A count of `Fraction` constructions
holds the gain without a timing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from affpi0 import linalg
from affpi0.algebra import AlgebraMorphism, AlgebraPresentation
from affpi0.errors import ResourceLimitError
from affpi0.mapspace import mapspace_presentation
from affpi0.polyring import GF, LIMITS, QQ, Polynomial, poly_parse, set_limits
from affpi0.solve import SOLVE_GUARD, rational_roots

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None,
                        max_examples=120,
                        suppress_health_check=[HealthCheck.too_slow])

F5 = GF(5)


def types(rows):
    return [[type(v) for v in row] for row in rows]


# ---------------------------------------------------------------------------
# the Fraction-level code that was replaced, kept as the reference


def old_rref(rows, field):
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    zero = field.zero()
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != zero), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(v, inv) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != zero:
                f = m[i][c]
                m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def old_nullspace(rows, ncols, field):
    red, pivots = old_rref(rows, field)
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = []
    for fc in free:
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(red[r][fc])
        basis.append(vec)
    return basis


def old_relations(polys, field):
    support = sorted({m for p in polys for m in p.terms})
    columns = [list(col) for col in zip(*[p.coefficients(support)
                                          for p in polys])]
    reduced, pivots = old_rref(old_nullspace(columns, len(polys), field), field)
    return reduced[:len(pivots)]


def old_rational_roots(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []
    roots = set()
    low = 0
    while coeffs[low] == 0:
        low += 1
    if low > 0:
        roots.add(Fraction(0))
        coeffs = coeffs[low:]
    if len(coeffs) == 1:
        return sorted(roots)
    den = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * den) for c in coeffs]
    g = gcd(*ints)
    ints = [c // g for c in ints]
    lead, const = abs(ints[-1]), abs(ints[0])
    for name, value in (("leading coefficient", lead), ("constant", const)):
        if isqrt(value) > SOLVE_GUARD:
            raise ResourceLimitError(
                f"rational root search: isqrt of the {name} {value} exceeds "
                f"guard SOLVE_GUARD = {SOLVE_GUARD}")
    for q in old_divisors(lead):
        for p in old_divisors(const):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    roots.add(cand)
    return sorted(roots)


def old_divisors(n):
    return sorted(d for k in range(1, isqrt(n) + 1) if n % k == 0
                  for d in {k, n // k})


def old_substitute(p, images):
    arity, f = images[0].arity, images[0].field
    result = Polynomial.zero(arity, f)
    powers = [[image] for image in images]
    for m, c in sorted(p.terms.items()):
        part = Polynomial.constant(c, arity, f)
        for e, pw in zip(m, powers):
            if e:
                while len(pw) < e:
                    pw.append(pw[-1] * pw[0])
                part = part * pw[e - 1]
        result = result + part
    return result


def outcome(call):
    """The value of call(), or the guard it trips with its message."""
    try:
        return call()
    except ResourceLimitError as exc:
        return "ResourceLimitError", str(exc)


# ---------------------------------------------------------------------------
# exactness of rational scalars


def test_rational_inverse_and_quotient_of_ints_are_fractions():
    for value, want in ((QQ.inv(3), Fraction(1, 3)),
                        (QQ.inv(Fraction(-2, 5)), Fraction(-5, 2)),
                        (QQ.div(1, 2), Fraction(1, 2)),
                        (QQ.div(Fraction(3), 4), Fraction(3, 4))):
        assert value == want and type(value) is Fraction
    for call in (lambda: QQ.inv(0), lambda: QQ.inv(Fraction(0)),
                 lambda: QQ.div(1, 0)):
        with pytest.raises(ZeroDivisionError):
            call()


def test_rref_and_nullspace_of_int_rows_are_exact():
    reduced, pivots = linalg.rref([[2, 1], [1, 1]], QQ)
    assert (reduced, pivots) == ([[1, 0], [0, 1]], [0, 1])
    assert types(reduced) == [[Fraction] * 2] * 2
    kernel = linalg.nullspace([[2, 1]], 2, QQ)
    assert kernel == [[Fraction(-1, 2), Fraction(1)]]
    assert types(kernel) == [[Fraction] * 2]


# ---------------------------------------------------------------------------
# agreement with the Fraction elimination and root test

q_entries = st.one_of(st.just(Fraction(0)), st.integers(-6, 6).map(Fraction),
                      st.fractions(-9, 9, max_denominator=12))
f5_entries = st.integers(0, 4)


@st.composite
def matrices(draw, field):
    """Wide, tall and square matrices, with zero rows and repeated or
    scaled rows spliced in."""
    entries = q_entries if field.is_rational else f5_entries
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        if rows and draw(st.booleans()):
            k = draw(st.integers(1, 4))
            copy = [field.mul(field.scalar(k), v)
                    for v in rows[draw(st.integers(0, len(rows) - 1))]]
        else:
            copy = [field.zero()] * ncols
        rows.insert(at, copy)
    return rows, ncols


MONOMIALS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0)]


def check_linear_algebra(rows, ncols, field):
    got, want = linalg.rref(rows, field), old_rref(rows, field)
    assert got == want
    assert types(got[0]) == types(want[0])
    kernel = linalg.nullspace(rows, ncols, field)
    assert kernel == old_nullspace(rows, ncols, field)
    assert types(kernel) == types(old_nullspace(rows, ncols, field))
    polys = [Polynomial.combination(2, field, MONOMIALS, row) for row in rows]
    rels = linalg.relations(polys, field)
    assert rels == old_relations(polys, field)
    assert types(rels) == types(old_relations(polys, field))


@DERANDOMIZED
@given(matrices(QQ))
def test_rref_nullspace_and_relations_agree_with_fractions_over_q(case):
    check_linear_algebra(*case, QQ)


@DERANDOMIZED
@given(matrices(F5))
def test_rref_nullspace_and_relations_agree_over_f5(case):
    check_linear_algebra(*case, F5)


def times(coeffs, factor):
    """The product of two coefficient lists, lowest first."""
    out = [Fraction(0)] * (len(coeffs) + len(factor) - 1)
    for i, a in enumerate(coeffs):
        for j, b in enumerate(factor):
            out[i + j] += a * b
    return out


@st.composite
def root_polynomials(draw):
    """Coefficient lists, lowest first: a rational multiple of rational
    linear factors b·x − a, maybe times x² − d and a power of x, maybe with
    trailing zeros; some carry a coefficient large enough to trip
    SOLVE_GUARD."""
    coeffs = [Fraction(draw(st.sampled_from([-5, -2, -1, 1, 3, 4])),
                       draw(st.integers(1, 7)))]
    for _ in range(draw(st.integers(0, 4))):
        coeffs = times(coeffs, [-draw(st.integers(-12, 12)),
                                draw(st.integers(1, 6))])
    if draw(st.booleans()):
        coeffs = times(coeffs, [-draw(st.integers(-9, 9)), 0, 1])
    if draw(st.booleans()):
        coeffs = [Fraction(0)] * draw(st.integers(1, 2)) + coeffs
    if draw(st.integers(0, 4)) == 0:
        k = draw(st.integers(0, len(coeffs) - 1))
        coeffs[k] += draw(st.integers(10 ** 11, 10 ** 22))
    return coeffs + [Fraction(0)] * draw(st.integers(0, 1))


@DERANDOMIZED
@given(root_polynomials())
def test_rational_roots_agree_with_the_fraction_root_test(coeffs):
    """Where the old root test answers, the sorted lists are the same;
    where it tripped its guard, the factoring kernel answers, with roots."""
    got = rational_roots(coeffs)
    want = outcome(lambda: old_rational_roots(coeffs))
    if isinstance(want, list):
        assert got == want
    assert all(type(r) is Fraction for r in got)
    for r in got:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * r + c
        assert acc == 0


def test_rational_roots_answer_past_the_old_guard_boundary():
    # x² = 1/lead²: the old root test answered at lead = SOLVE_GUARD, where
    # isqrt(lead²) is the guard itself, and tripped one above
    for lead in (SOLVE_GUARD, SOLVE_GUARD + 1):
        coeffs = [Fraction(-1), Fraction(0), Fraction(lead ** 2)]
        assert rational_roots(coeffs) == [Fraction(-1, lead),
                                          Fraction(1, lead)]
    below = [Fraction(-1), Fraction(0), Fraction(SOLVE_GUARD ** 2)]
    assert rational_roots(below) == old_rational_roots(below)
    with pytest.raises(ResourceLimitError, match="leading coefficient"):
        old_rational_roots([Fraction(-1), Fraction(0),
                            Fraction((SOLVE_GUARD + 1) ** 2)])



def product_of(*factors):
    coeffs = [Fraction(1)]
    for g in factors:
        coeffs = times(coeffs, [Fraction(c) for c in g])
    return coeffs


@pytest.mark.parametrize("coeffs, count", [
    # x·Π_{i≤8} (x² − i²): 17 rational roots, so 17 linear factors modulo
    # every good prime, more than `max_factors` recombination allows
    (product_of([0, 1], *[[-i * i, 0, 1] for i in range(1, 9)]), 17),
    # 15 rational roots times an irreducible quadratic
    (product_of([0, 1], *[[-i * i, 0, 1] for i in range(1, 8)], [1, 0, 1]),
     15),
], ids=["x-times-8-squares", "15-roots-times-x2+1"])
def test_rational_roots_agree_past_the_factor_guard(coeffs, count):
    want = old_rational_roots(coeffs)
    assert len(want) == count
    assert rational_roots(coeffs) == want


# ---------------------------------------------------------------------------
# guard parity of the substitution kernel


@pytest.fixture
def low_guards():
    saved = (LIMITS.max_basis, LIMITS.max_degree, LIMITS.max_terms)
    set_limits(max_degree=8, max_terms=30)
    yield
    set_limits(*saved)


@pytest.fixture
def wide_degrees():
    saved = (LIMITS.max_basis, LIMITS.max_degree, LIMITS.max_terms)
    set_limits(max_degree=40_000)
    yield
    set_limits(*saved)


SOURCE, TARGET = ["x", "y"], ["u", "v", "w"]


def check_substitution(p, images, relations):
    """Polynomial.substitute and apply_poly, against the Fraction loop and
    the normal form of its result: equal values and coefficient types, or
    the same guard with the same message."""
    field = p.field
    got = outcome(lambda: p.substitute(images))
    want = outcome(lambda: old_substitute(p, images))
    assert got == want
    target = AlgebraPresentation(field, TARGET, relations)
    hom = AlgebraMorphism(AlgebraPresentation(field, SOURCE), target, images)
    images = list(hom.images)
    got = outcome(lambda: hom.apply_poly(p))
    want = outcome(lambda: target.nf(old_substitute(p, images)))
    assert got == want
    if isinstance(got, Polynomial):
        assert [type(c) for c in got.terms.values()] == \
            [type(c) for c in want.terms.values()]
    return got


def test_degree_and_term_guards_trip_as_before(low_guards):
    # a term's expansion: x^2*y^2 at (u^2 + v, v^3) has degree 10 > 8
    for field in (QQ, F5):
        p = poly_parse("x^2*y^2 + 1/2*x", SOURCE, field)
        images = [poly_parse(t, TARGET, field) for t in ("u^2 + v", "v^3")]
        got = check_substitution(p, images, ["u*v*w - 1"])
        assert got[0] == "ResourceLimitError" and "degree" in got[1]
    # a product: (u + v + w + 1)^4 has 35 terms > 30, its cube 20
    for field in (QQ, F5):
        p = poly_parse("x^4 + y", SOURCE, field)
        images = [poly_parse(t, TARGET, field) for t in ("u + v + w + 1", "w")]
        got = check_substitution(p, images, [])
        assert got[0] == "ResourceLimitError" and "term count" in got[1]
    assert not isinstance(check_substitution(
        poly_parse("x^3 + y", SOURCE, QQ),
        [poly_parse(t, TARGET, QQ) for t in ("u + v + w + 1", "w")], []),
        tuple)


polynomial_texts = st.lists(
    st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3),
              st.sampled_from(["1", "x", "y", "x^2", "x*y", "y^3", "x^3*y",
                               "x^2*y^2", "x^5"])),
    min_size=1, max_size=4).map(
        lambda ts: " + ".join(f"({a}/{b})*{m}" for a, b, m in ts))
image_texts = st.lists(
    st.tuples(st.sampled_from([-2, -1, 1, 2]), st.integers(1, 2),
              st.sampled_from(["1", "u", "v", "w", "u*v", "v^2", "u^2*w",
                               "w^3"])),
    min_size=0, max_size=3).map(
        lambda ts: " + ".join(f"({a}/{b})*{m}" for a, b, m in ts) or "0")


@DERANDOMIZED
@given(st.sampled_from([QQ, F5]), polynomial_texts,
       st.tuples(image_texts, image_texts),
       st.sampled_from([[], ["u*v - w"], ["u^2 - 1", "v*w - u"]]))
def test_substitution_agrees_with_the_fraction_loop(field, text, image_pair,
                                                    relations):
    saved = (LIMITS.max_basis, LIMITS.max_degree, LIMITS.max_terms)
    set_limits(max_degree=9, max_terms=9)
    try:
        p = poly_parse(text, SOURCE, field)
        images = [poly_parse(t, TARGET, field) for t in image_pair]
        check_substitution(p, images, relations)
    finally:
        set_limits(*saved)


def test_a_degree_past_the_packed_fields_is_a_guard_trip(wide_degrees):
    """With max_degree raised past 32767, a product that does not fit the
    16-bit fields raises; the Fraction loop answered u^40000 here."""
    p = poly_parse("x^2", SOURCE, QQ)
    for exponent, fits in ((16_000, True), (20_000, False)):
        images = [Polynomial.monomial((exponent, 0, 0), QQ),
                  Polynomial.monomial((0, 1, 0), QQ)]
        hom = AlgebraMorphism(AlgebraPresentation(QQ, SOURCE),
                              AlgebraPresentation(QQ, TARGET), images)
        want = Polynomial.monomial((2 * exponent, 0, 0), QQ)
        assert old_substitute(p, images) == want
        if fits:
            assert p.substitute(images) == want == hom.apply_poly(p)
        else:
            for call in (lambda: p.substitute(images),
                         lambda: hom.apply_poly(p)):
                with pytest.raises(ResourceLimitError, match="16-bit"):
                    call()


# ---------------------------------------------------------------------------
# Fractions built, counted


def count_fractions(call):
    """call() and the number of `Fraction`s constructed while it ran."""
    new = Fraction.__dict__["__new__"]
    count = 0

    def counted(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        value = call()
    finally:
        Fraction.__new__ = new
    return value, count


def test_the_universal_map_builds_one_fraction_per_result_term():
    circle = AlgebraPresentation(QQ, ["x", "y"], ["x^2 + y^2 - 1"])
    level = mapspace_presentation(circle, AlgebraPresentation(QQ, ["t"]), 2)
    universal = level.universal
    universal.target.gb()._reducers()       # the basis is not counted
    monomials = [Polynomial.monomial(v, QQ)
                 for v in circle.standard_monomials(2)]
    assert len(monomials) == 5
    for p in monomials:
        image, built = count_fractions(lambda: universal.apply_poly(p))
        assert image.terms and built <= len(image.terms)
        assert image == level.universal_ring.nf(
            old_substitute(p, list(universal.images)))


@DERANDOMIZED
@given(matrices(QQ))
def test_rref_builds_one_fraction_per_nonzero_pivot_row_entry(case):
    rows, _ = case
    (reduced, pivots), built = count_fractions(lambda: linalg.rref(rows, QQ))
    assert built <= sum(1 for row in reduced[:len(pivots)] for v in row if v)
