"""Tests for exact fields, polynomial arithmetic, the parser and the Gröbner engine."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from affpi0 import polyring
from affpi0.errors import ParseError, ResourceLimitError, RingMismatchError
from affpi0.polyring import (FieldDescriptor, GF, GroebnerBasis, QQ,
                             Polynomial, elimination_ideal, groebner,
                             ideal_membership, monomial_divides,
                             normal_form, poly_parse, set_limits,
                             standard_monomials)
from harnesses import monomials_up_to, reference_s_polynomial


def P(text, names, field=QQ):
    return poly_parse(text, names, field)


# ---------------------------------------------------------------------------
# fields


def test_field_descriptor_rejects_composite():
    with pytest.raises(ValueError):
        FieldDescriptor(6)


def test_prime_field_fermat_self_test():
    for p in (2, 3, 5, 7, 11):
        f = GF(p)
        for a in f.elements():
            acc = f.one()
            for _ in range(p):
                acc = f.mul(acc, a)
            assert acc == a


def test_rational_scalar_canonical():
    f = QQ
    assert f.scalar(Fraction(2, 4)) == Fraction(1, 2)
    v = f.scalar(Fraction(-3, -6))
    assert v.denominator > 0


# ---------------------------------------------------------------------------
# parsing


def test_parse_circle():
    p = P("x^2 + y^2 - 1", ["x", "y"])
    assert len(p.terms) == 3
    assert p.terms[(2, 0)] == 1
    assert p.terms[(0, 0)] == -1


def test_parse_zero_and_char_two_collapse():
    assert P("0", ["x"]).is_zero
    assert P("2*x", ["x"], GF(2)).is_zero


def test_parse_rational_literal_and_division_errors():
    p = P("1/2*x", ["x"])
    assert p.terms[(1,)] == Fraction(1, 2)
    with pytest.raises(ParseError):
        P("x/2", ["x"])
    with pytest.raises(ParseError):
        P("1/0", ["x"])
    with pytest.raises(ParseError):
        P("1/3", ["x"], GF(3))


def test_parse_unknown_identifier_and_syntax():
    with pytest.raises(ParseError):
        P("x + z", ["x", "y"])
    with pytest.raises(ParseError):
        P("x + ", ["x"])
    with pytest.raises(ParseError):
        P("x y", ["x", "y"])  # no implicit multiplication


def test_parse_deep_nesting_and_long_literals_are_parse_errors():
    assert P("(" * 100 + "x" + ")" * 100, ["x"]) == P("x", ["x"])
    with pytest.raises(ParseError):
        P("(" * 3000 + "x" + ")" * 3000, ["x"])
    long = "1" + "0" * 5000
    for text in (long, f"x^{long}", f"1/{long}"):
        with pytest.raises(ParseError):
            P(text, ["x"])


def test_parse_unary_minus_placement():
    assert P("-x + 1", ["x"]) == P("1 - x", ["x"])
    assert P("(-x)^2", ["x"]) == P("x^2", ["x"])


def test_parse_print_parse_roundtrip():
    names = ["x", "y", "z"]
    rng = random.Random(7)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            m = tuple(rng.randint(0, 3) for _ in names)
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if c:
                terms[m] = c
        p = Polynomial(3, QQ, {m: c for m, c in terms.items() if c != 0})
        assert P(p.to_string(names), names) == p


# ---------------------------------------------------------------------------
# arithmetic


def test_difference_of_squares():
    names = ["x"]
    assert P("(x+1)*(x-1)", names) == P("x^2-1", names)


def test_frobenius_over_f2():
    names = ["x", "y"]
    assert P("(x+y)^2", names, GF(2)) == P("x^2+y^2", names, GF(2))


def test_scale_by_zero():
    p = P("x", ["x"])
    assert p.scale(0).is_zero


def test_pow_negative_exponent_rejected():
    with pytest.raises(ValueError):
        P("x", ["x"]) ** -1


def test_pow_starts_from_the_base(monkeypatch):
    """p ** 2 is one product and p ** 0 is one; p ** 5 is two squarings
    and one product, with no unit polynomial multiplied in."""
    calls = []
    mul = Polynomial.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    p = P("x + y - 2", ["x", "y"])
    monkeypatch.setattr(Polynomial, "__mul__", counted)
    for n, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)):
        calls.clear()
        power = p ** n
        assert len(calls) == products
        want = Polynomial.one(2, QQ)
        for _ in range(n):
            want = mul(want, p)
        assert power == want


def test_ring_mismatch_detected():
    with pytest.raises(RingMismatchError):
        P("x", ["x"]) + P("x", ["x", "y"])
    with pytest.raises(RingMismatchError):
        P("x", ["x"]) * P("x", ["x"], GF(5))


def test_normal_form_against_a_basis_from_another_ring():
    basis = groebner([P("x^2 - y", ["x", "y"])])
    with pytest.raises(RingMismatchError):
        normal_form(P("x^3", ["x"]), basis)
    with pytest.raises(RingMismatchError):
        normal_form(P("x^3", ["x", "y"], GF(5)), basis)
    with pytest.raises(RingMismatchError):
        GroebnerBasis((P("x", ["x"]), P("x", ["x", "y"])), basis.order)


def test_derivative_and_substitute():
    names = ["x", "y"]
    p = P("x^2*y + 3*x", names)
    assert p.derivative(0) == P("2*x*y + 3", names)
    q = p.substitute([P("y", names), P("x", names)])
    assert q == P("y^2*x + 3*y", names)


SUBST = settings(derandomize=True, database=None, deadline=None,
                 max_examples=60,
                 suppress_health_check=[HealthCheck.too_slow])


def _poly(arity, field, max_exp):
    """Polynomials in `arity` variables from up to four random terms."""
    term = st.tuples(st.tuples(*[st.integers(0, max_exp)] * arity),
                     st.integers(-6, 6))
    return st.lists(term, max_size=4).map(lambda ts: sum(
        (Polynomial.monomial(m, field, c) for m, c in ts),
        Polynomial.zero(arity, field)))


@st.composite
def substitutions(draw):
    field = draw(st.sampled_from([QQ, GF(5), GF(32003)]))
    n = draw(st.integers(1, 3))
    k = draw(st.sampled_from([a for a in range(4) if a != n]))
    p = draw(_poly(n, field, 4))
    images = [draw(_poly(k, field, 2)) for _ in range(n)]
    return p, images


@SUBST
@given(substitutions())
def test_substitute_is_the_sum_of_image_powers(case):
    """p(images) = Σ c·Π images[i]^e, with the images in a ring of another
    arity and every power taken by `**`."""
    p, images = case
    k, field = images[0].arity, images[0].field
    expected = Polynomial.zero(k, field)
    for m, c in p.terms.items():
        part = Polynomial.constant(c, k, field)
        for image, e in zip(images, m):
            part = part * image ** e
        expected = expected + part
    assert p.substitute(images) == expected


def test_substitute_builds_each_power_once_from_the_image(monkeypatch):
    """x^3 + x^2*y at (u + v, uv - 1): (u+v)^2, (u+v)^3 and one product per
    factor of each term, with no unit polynomial to start a power from; the
    products are the substitution kernel's, on packed term maps."""
    counts = {"mul": 0, "one": 0}
    mul, one = polyring._product, Polynomial.one

    def counted_mul(a, b, modulus):
        counts["mul"] += 1
        return mul(a, b, modulus)

    def counted_one(arity, field):
        counts["one"] += 1
        return one(arity, field)

    p = P("x^3 + x^2*y", ["x", "y"])
    images = [P("u + v", ["u", "v"]), P("u*v - 1", ["u", "v"])]
    monkeypatch.setattr(polyring, "_product", counted_mul)
    monkeypatch.setattr(Polynomial, "one", staticmethod(counted_one))
    q = p.substitute(images)
    monkeypatch.undo()
    assert counts == {"mul": 5, "one": 0}
    assert q == P("(u + v)^3 + (u + v)^2*(u*v - 1)", ["u", "v"])


def test_split_by_leading_block():
    names = ["a", "b", "u", "v"]
    p = P("3*a^2*u - a^2*v^2 + b*u + 5*b + u*v - 7", names)
    parts = p.split(2)
    rest = ["u", "v"]
    assert parts == {(2, 0): P("3*u - v^2", rest), (0, 1): P("u + 5", rest),
                     (0, 0): P("u*v - 7", rest)}
    recombined = Polynomial.zero(4, QQ)
    for front, part in parts.items():
        recombined = recombined + Polynomial.monomial(
            front + (0, 0), QQ) * part.extend_arity(4, [2, 3])
    assert recombined == p
    # n = 0 keeps the whole polynomial under the empty exponent tuple
    assert p.split(0) == {(): p}
    # n = arity leaves constants in the 0-variable ring
    whole = p.split(4)
    assert len(whole) == len(p.terms)
    assert whole[(2, 0, 1, 0)] == Polynomial.constant(3, 0, QQ)
    assert Polynomial.zero(4, QQ).split(2) == {}


# ---------------------------------------------------------------------------
# Gröbner bases


def test_groebner_hand_reduction():
    names = ["x"]
    gb = groebner([P("x^2-1", names), P("x-1", names)])
    assert [g.to_string(names) for g in gb] == ["x - 1"]


def test_groebner_empty():
    assert len(groebner([])) == 0


def test_groebner_two_points_quotient_dimension():
    names = ["x", "y"]
    gb = groebner([P("x*y", names), P("x+y-1", names)])
    std = standard_monomials(gb, 2, 10)
    assert len(std) == 2


def test_groebner_deterministic_output():
    names = ["x", "y", "z"]
    gens = [P("x^2+y^2+z^2-1", names), P("x*y - z", names), P("y*z - x", names)]
    a = groebner(gens)
    b = groebner(list(reversed(gens)))
    assert [g.to_string(names) for g in a] == [g.to_string(names) for g in b]


def test_groebner_basis_is_monic_and_reduced():
    names = ["x", "y"]
    gb = groebner([P("2*x^2 - 2*y", names), P("3*y^2 - 3*x", names)])
    for g in gb:
        assert g.leading_coeff(gb.order) == 1
        for h in gb:
            if h is g:
                continue
            lt = h.leading_monomial(gb.order)
            for m in g.terms:
                assert not all(a <= b for a, b in zip(lt, m))


def test_normal_form_examples():
    names = ["x"]
    gb = groebner([P("x^2-x", names)])
    assert normal_form(P("x^2", names), gb) == P("x", names)
    gb3 = groebner([P("x^3-x", names)])
    assert normal_form(P("x^3", names), gb3) == P("x", names)
    assert normal_form(P("x^3-x", names), gb3).is_zero


def test_normal_form_linear_and_idempotent():
    names = ["x", "y"]
    gb = groebner([P("x^2-y", names), P("y^2-1", names)])
    rng = random.Random(3)
    for _ in range(20):
        p = Polynomial(2, QQ, {})
        q = Polynomial(2, QQ, {})
        for _ in range(4):
            p = p + Polynomial.monomial(
                (rng.randint(0, 3), rng.randint(0, 3)), QQ, rng.randint(-3, 3))
            q = q + Polynomial.monomial(
                (rng.randint(0, 3), rng.randint(0, 3)), QQ, rng.randint(-3, 3))
        lhs = normal_form(p + q, gb)
        rhs = normal_form(p, gb) + normal_form(q, gb)
        assert lhs == rhs
        nf = normal_form(p, gb)
        assert normal_form(nf, gb) == nf


def test_ideal_membership_examples():
    names = ["z0", "z1"]
    gb = groebner([P("z0^2-z0", names), P("z1*(2*z0-1)", names),
                   P("z1^2", names)])
    assert ideal_membership(P("z1", names), gb)
    names1 = ["x"]
    assert ideal_membership(P("1", names1),
                            groebner([P("x", names1), P("x-1", names1)]))
    assert not ideal_membership(P("x", names1), groebner([P("x^2", names1)]))


def test_ideal_membership_against_bruteforce_span():
    """Membership agrees with linear algebra over the degree-bounded span."""
    from affpi0.linalg import in_span

    names = ["x", "y"]
    gens = [P("x^2-y", names), P("x*y-1", names)]
    gb = groebner(gens)
    rng = random.Random(11)
    slack = 4
    for _ in range(12):
        p = Polynomial(2, QQ, {})
        for _ in range(3):
            p = p + Polynomial.monomial(
                (rng.randint(0, 2), rng.randint(0, 2)), QQ, rng.randint(-2, 2))
        bound = p.total_degree() + slack
        span_polys = []
        for g in gens:
            for m in monomials_up_to(2, max(bound - g.total_degree(), 0)):
                span_polys.append(g.mul_monomial(m))
        coords = sorted({m for q in span_polys for m in q.terms}
                        | set(p.terms))
        rows = [[q.terms.get(m, Fraction(0)) for m in coords]
                for q in span_polys]
        target = [p.terms.get(m, Fraction(0)) for m in coords]
        brute = in_span(rows, target, QQ)
        assert brute == ideal_membership(p, gb)


def test_elimination_ideal_substitution():
    names = ["t", "x", "y"]
    gens = [P("t - x^2", names), P("t - y", names)]
    out = elimination_ideal(gens, [0])
    small = ["x", "y"]
    assert [g.to_string(small) for g in out] == ["x^2 - y"]


def test_elimination_identity_and_zero():
    names = ["x", "y"]
    assert elimination_ideal([P("x", names)], [0]) == []
    out = elimination_ideal([P("y - x^2", names)], [])
    assert [g.to_string(names) for g in out] == ["x^2 - y"]


def test_elimination_of_zero_generators_is_empty():
    assert elimination_ideal([Polynomial.zero(2, QQ)] * 2, [0]) == []


def test_standard_monomials_ordering():
    names = ["x"]
    gb = groebner([P("x^3-x", names)])
    assert standard_monomials(gb, 1, 5) == [(0,), (1,), (2,)]
    free = groebner([])
    assert standard_monomials(free, 1, 2) == [(0,), (1,), (2,)]


@pytest.mark.parametrize("seed", range(40))
def test_standard_monomials_match_the_filtered_degree_walk(seed):
    """The staircase walk lists what filtering every monomial up to the
    degree bound lists, in the same order: random bases, the zero ideal,
    1 in I, arity 0 and maxdeg -1 included."""
    rng = random.Random(seed)
    n = rng.randint(0, 4)
    field = QQ if seed % 2 else GF(3)
    gens = []
    for _ in range(rng.randint(0, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            m = [0] * n
            for _ in range(rng.randint(0, 3)):
                if n:
                    m[rng.randrange(n)] += 1
            terms[tuple(m)] = field.scalar(rng.randint(1, 4))
        gens.append(Polynomial(n, field, {m: c for m, c in terms.items() if c}))
    if seed % 10 == 0:
        gens.append(Polynomial.one(n, field))
    gb = groebner(gens)
    for maxdeg in (-1, 0, 1, 3, 5):
        walk = [m for m in monomials_up_to(n, maxdeg)
                if not any(monomial_divides(lt, m)
                           for lt in gb.leading_monomials)]
        assert standard_monomials(gb, n, maxdeg) == walk


def test_standard_monomial_guard_trips():
    set_limits(max_terms=100)
    try:
        assert len(standard_monomials(groebner([]), 2, 12)) == 91
        with pytest.raises(ResourceLimitError, match="standard monomial"):
            standard_monomials(groebner([]), 2, 13)
    finally:
        set_limits(max_terms=100_000)


def test_resource_guard_trips():
    set_limits(max_degree=8)
    try:
        with pytest.raises(ResourceLimitError):
            P("x+1", ["x"]) ** 20
    finally:
        set_limits(max_degree=64)


def test_degree_guard_trips_before_the_product_is_built(monkeypatch):
    """The degrees of nonzero factors add, so the guard needs no term of
    the product: with `monomial_mul` failing, only the guard is reached."""
    p, q = P("x^3 + y", ["x", "y"]), P("x*y^2 - 1", ["x", "y"])
    assert (p * q).total_degree() == 6

    def no_product(a, b):
        raise AssertionError("product built past the degree guard")

    set_limits(max_degree=5)
    try:
        monkeypatch.setattr(polyring, "monomial_mul", no_product)
        with pytest.raises(ResourceLimitError, match="degree 6 exceeds"):
            p * q
        zero = Polynomial.zero(2, QQ)
        assert (p * zero).is_zero and (zero * q).is_zero
    finally:
        set_limits(max_degree=64)


def test_large_power_of_a_rational_constant_trips_the_degree_guard():
    for text in ("3^100000000", "(1/2)^65", "(x - x + 2)^65"):
        with pytest.raises(ResourceLimitError, match="max_degree"):
            P(text, ["x"])
    assert P("3^64", ["x"]) == Polynomial.constant(3 ** 64, 1, QQ)
    assert P("(-1)^100000001", ["x"]) == Polynomial.constant(-1, 1, QQ)
    assert P("0^100000000", ["x"]).is_zero
    assert P("3^100000000", ["x"], GF(7)) == Polynomial.constant(
        pow(3, 100000000, 7), 1, GF(7))


def test_prime_field_groebner():
    names = ["x", "y"]
    f = GF(2)
    gb = groebner([P("x^2+x", names, f), P("y^2+y", names, f)])
    assert ideal_membership(P("x^2+x", names, f), gb)
    assert not ideal_membership(P("x+y", names, f), gb)


def test_normal_form_of_product_depends_only_on_class():
    """nf(p·m) is unchanged when p is replaced by nf(p) or shifted by the ideal."""
    names = ["x", "y"]
    gens = [P("x^2 - y", names), P("y^2 - 1", names)]
    gb = groebner(gens)
    rng = random.Random(17)
    for _ in range(15):
        p = Polynomial(2, QQ, {})
        for _ in range(4):
            p = p + Polynomial.monomial(
                (rng.randint(0, 3), rng.randint(0, 3)), QQ, rng.randint(-3, 3))
        m = Polynomial.monomial((rng.randint(0, 2), rng.randint(0, 2)), QQ)
        shifted = p + gens[rng.randrange(2)].mul_monomial(
            (rng.randint(0, 1), rng.randint(0, 1)))
        assert normal_form(p * m, gb) == normal_form(normal_form(p, gb) * m, gb)
        assert normal_form(p * m, gb) == normal_form(shifted * m, gb)


def test_groebner_property_by_independent_spolynomial_reduction():
    """Every S-polynomial of the output reduces to zero: the defining test,
    run independently of the pair-elimination logic inside the engine."""
    rng = random.Random(23)
    systems = [
        [P("x*y - 1", ["x", "y", "z"]), P("y*z - 1", ["x", "y", "z"]),
         P("x + y + z - 3", ["x", "y", "z"])],
        [P("x^2 + y^2 + z^2 - 1", ["x", "y", "z"]),
         P("x*y - z", ["x", "y", "z"])],
    ]
    for _ in range(6):
        names = ["x", "y", "z"]
        gens = []
        for _ in range(3):
            p = Polynomial(3, QQ, {})
            for _ in range(3):
                p = p + Polynomial.monomial(
                    (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1)),
                    QQ, rng.randint(-2, 2))
            if not p.is_zero:
                gens.append(p)
        if gens:
            systems.append(gens)
    for gens in systems:
        gb = groebner(gens)
        for g in gens:
            assert normal_form(g, gb).is_zero
        polys = list(gb)
        lms = [g.leading_monomial(gb.order) for g in polys]
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                s = reference_s_polynomial(polys[i], lms[i], polys[j],
                                           lms[j])
                assert normal_form(s, gb).is_zero


def test_known_benchmark_quotient_dimensions():
    names = ["x", "y", "z"]
    cyclic3 = groebner([P("x + y + z", names), P("x*y + y*z + z*x", names),
                        P("x*y*z - 1", names)])
    assert len(standard_monomials(cyclic3, 3, 12)) == 6
    k_names = ["u0", "u1", "u2"]
    katsura2 = groebner([
        P("u0 + 2*u1 + 2*u2 - 1", k_names),
        P("u0^2 + 2*u1^2 + 2*u2^2 - u0", k_names),
        P("2*u0*u1 + 2*u1*u2 - u1", k_names)])
    assert len(standard_monomials(katsura2, 3, 12)) == 4


def test_prime_field_quotient_dimension_equals_point_count():
    names = ["x", "y"]
    f2 = GF(2)
    gb = groebner([P("x^2 - x", names, f2), P("y^2 - y", names, f2)])
    assert len(standard_monomials(gb, 2, 8)) == 4


def test_elimination_classical_cusp():
    # the parametrized cusp (t^2, t^3): eliminating t leaves x^3 - y^2
    names = ["t", "x", "y"]
    out = elimination_ideal([P("x - t^2", names), P("y - t^3", names)], [0])
    small = ["x", "y"]
    strings = [g.to_string(small) for g in out]
    assert strings == ["x^3 - y^2"]


def test_elimination_middle_variable():
    # I = (y - x^2, z - x^4): eliminating x relates the kept variables
    names = ["x", "y", "z"]
    out = elimination_ideal([P("y - x^2", names), P("z - x^4", names)], [0])
    small = ["y", "z"]
    assert [g.to_string(small) for g in out] == ["y^2 - z"]


def test_groebner_spolynomial_soak_over_prime_field():
    rng = random.Random(41)
    f5 = GF(5)
    for _ in range(8):
        gens = []
        for _ in range(3):
            p = Polynomial(3, f5, {})
            for _ in range(4):
                p = p + Polynomial.monomial(
                    (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)),
                    f5, rng.randint(0, 4))
            if not p.is_zero:
                gens.append(p)
        if not gens:
            continue
        gb = groebner(gens)
        for g in gens:
            assert normal_form(g, gb).is_zero
        polys = list(gb)
        lms = [g.leading_monomial(gb.order) for g in polys]
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                s = reference_s_polynomial(polys[i], lms[i], polys[j],
                                           lms[j])
                assert normal_form(s, gb).is_zero
