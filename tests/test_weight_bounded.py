"""Weight-bounded level bases for the equalizer cut.

Over a free B every relation of a map-space level is homogeneous in the
weight |v| of z[a,v], and the evaluation differences of a D-slice at level T
have weight at most D·T.  The cut reduces them by a basis under
`WeightOrder` truncated at that weight (`groebner`'s `bound`).  These tests
pin the bounded cut to the full one, computed here by the route it replaced
(the full degrevlex level through `upsilon_poly`), check the weight layout
of the packed monomials against `WeightOrder.key` and the tuple lcm, run an
unbounded weight basis through the checked kernel, and plant the faults the
guards must catch.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from affpi0 import linalg, polyring
from affpi0 import pi0 as pi0_mod
from affpi0.algebra import AlgebraPresentation
from affpi0.errors import (HypothesisError, ResourceLimitError,
                           TruncationError)
from affpi0.mapspace import mapspace_presentation
from affpi0.pi0 import equalizer_membership, equalizer_subspace
from affpi0.polyring import (DEGREVLEX, GF, QQ, GroebnerBasis, Polynomial,
                             WeightOrder, groebner, monomial_lcm, normal_form)
from harnesses import monomials_up_to
from test_reduction_kernel import (FIELDS, cases, checked_engine,  # noqa: F401
                                   parent_update, same, s_pair_sequence)

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow])

BOUND = 1 << (polyring._WIDTH - 1)      # the field values a packing holds


def A_of(field, names, rels):
    return AlgebraPresentation(field, names, rels)


def parabolas(copies: int) -> str:
    return "*".join(f"(y - x^2 - {i})" for i in range(copies))


# ---------------------------------------------------------------------------
# the bounded cut is the full cut


def reference_cut(a, degree, tower):
    """The cut by the route the bounded one replaced: υ's coefficients
    reduced by the full degrevlex basis of level `tower`, summed over x^k
    for k >= 1, and the relations among them."""
    m = mapspace_presentation(a, A_of(a.field, ["x"], []), tower)
    monos = a.standard_monomials(degree)
    return monos, linalg.relations(
        [reference_difference(m, Polynomial.monomial(v, a.field))
         for v in monos], a.field)


def reference_difference(m, poly):
    acc = Polynomial.zero(m.n_z, m.field)
    for v, coeff in m.upsilon_poly(poly).items():
        if sum(v) > 0:
            acc = acc + coeff
    return acc


def bounded_cut(a, degree, tower):
    return pi0_mod._cut(a, degree, pi0_mod._line_level(a, tower))


# (field, variables, relations, slice degree D, tower T)
PINNED = {
    "circle-T2": (QQ, ["x", "y"], ["x^2 + y^2 - 1"], 2, 2),
    "circle-T3": (QQ, ["x", "y"], ["x^2 + y^2 - 1"], 2, 3),
    "node-T2": (QQ, ["x", "y"], ["y^2 - x^2 - x^3"], 2, 2),
    "cusp-T2": (QQ, ["x", "y"], ["y^2 - x^3"], 2, 2),
    "two_cubics-T3": (QQ, ["x", "y"], ["(y - x^3)*(y - x^3 - 1)"], 2, 3),
    "four_parabolas-T3": (QQ, ["x", "y"], [parabolas(4)], 2, 3),
    "f3-cusp-T1": (GF(3), ["x", "y"], ["y^2 - x^3"], 3, 1),
    "f3-cusp-T2": (GF(3), ["x", "y"], ["y^2 - x^3"], 3, 2),
    "f3-cusp-T3": (GF(3), ["x", "y"], ["y^2 - x^3"], 3, 3),
    "f2-hyperbola-T2": (GF(2), ["x", "y"], ["x*y - 1"], 3, 2),
    "f5-two_parabolas-T2": (GF(5), ["x", "y"], [parabolas(2)], 3, 2),
    "f3-y3_x-T2": (GF(3), ["x", "y"], ["y^3 - x"], 3, 2),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bounded_cut_is_the_full_cut(name):
    field, names, rels, degree, tower = PINNED[name]
    a = A_of(field, names, rels)
    assert bounded_cut(a, degree, tower) == reference_cut(a, degree, tower)


def test_the_f3_cusp_cut_shrinks_with_the_tower():
    cusp = A_of(GF(3), ["x", "y"], ["y^2 - x^3"])
    assert [[e.to_string() for e in equalizer_subspace(cusp, 3, t).basis]
            for t in (1, 2, 3)] == [["1", "y^2", "y^3"], ["1", "y^3"], ["1"]]


def reference_membership(a, poly, tower):
    """(passed, first failing level or tower, residual) by the full route."""
    for d in range(1, tower + 1):
        diff = reference_difference(pi0_mod._line_level(a, d), poly)
        if not diff.is_zero:
            return False, d, diff
    return True, tower, None


# the algebras of test_consistency's membership test
CONSISTENCY_ALGEBRAS = [(["x"], ["x^3 - x"]), (["e"], ["e^2 - e"]),
                        (["x", "y"], ["x*y"]), (["x", "y"], ["x^2 + y^2 - 1"]),
                        (["u", "v"], ["u^2 - u", "v^2"])]


def test_membership_verdicts_are_the_full_routes():
    """Same verdict and first failing level on every slice monomial and on
    seeded combinations; a residual is the full route's modulo the level
    ideal, so both have one full normal form."""
    rng = random.Random(31)
    verdicts = []
    for names, rels in CONSISTENCY_ALGEBRAS:
        a = A_of(QQ, names, rels)
        monos = a.standard_monomials(3)
        polys = [Polynomial.monomial(v, QQ) for v in monos]
        polys += [Polynomial.combination(a.arity, QQ, monos,
                                         [rng.randint(-2, 2) for _ in monos])
                  for _ in range(4)]
        for p in polys:
            elem = a.element(p)
            verdict = equalizer_membership(a, elem, 2)
            passed, level, residual = reference_membership(a, elem.poly, 2)
            assert (verdict.passed, verdict.level) == (passed, level)
            if not passed:
                level_algebra = pi0_mod._line_level(a, level).algebra
                assert level_algebra.nf(verdict.residual) == residual
            verdicts.append(passed)
    # both verdicts were seen, and many of each
    assert verdicts.count(True) > 10 and verdicts.count(False) > 10


# ---------------------------------------------------------------------------
# the engine under WeightOrder


def weighted_monomials(arity):
    """(weights, a, b): weights 0-3, some 0, and exponents whose every
    field in a·b, the weight row's too, stays below the field bound; b is
    a multiple of a half of the time."""
    weights = st.lists(st.integers(0, 3), min_size=arity, max_size=arity)

    def pair(ws):
        top = (BOUND - 1) // (3 * max(arity, 1) * max([1, *ws]))
        exps = st.lists(st.integers(0, top), min_size=arity, max_size=arity)
        return st.tuples(st.just(tuple(ws)), exps, exps, st.booleans()).map(
            lambda t: (t[0], tuple(t[1]), tuple(t[2]) if not t[3]
                       else tuple(a + c for a, c in zip(t[1], t[2]))))
    return weights.flatmap(pair)


@pytest.mark.parametrize("arity", [1, 3, 6])
@PROPERTY
@given(data=st.data())
def test_weight_packing_is_the_weight_order(arity, data):
    weights, a, b = data.draw(weighted_monomials(arity))
    order = WeightOrder(weights)
    packing = polyring._packing(order, arity)
    pa, pb = packing.pack(a), packing.pack(b)
    assert not (pa + pb) & packing.guard
    assert (pa < pb, pa == pb) == (order.key(a) < order.key(b), a == b)
    assert packing.unpack(pa) == a
    assert pa >> packing.shift == sum(w * e for w, e in zip(weights, a))


def test_weight_packing_at_the_field_edge():
    """A weight-3 variable: degree (BOUND - 1) // 3 packs, its weight row
    just below the bound, and one degree more is refused at entry."""
    order = WeightOrder((3, 0))
    packing = polyring._packing(order, 2)
    top = (BOUND - 1) // 3
    edge = packing.pack((top, 0))
    assert edge >> packing.shift == 3 * top < BOUND
    assert not edge & packing.guard
    assert packing.pack((top - 1, 5)) < edge < packing.pack((top, 1))
    y = Polynomial.variable(1, 2, QQ)
    fits = Polynomial.monomial((top, 0), QQ)
    over = Polynomial.monomial((top + 1, 0), QQ)
    assert normal_form(fits, GroebnerBasis((y,), order)) == fits
    with pytest.raises(ResourceLimitError, match=f"{polyring._WIDTH}-bit"):
        normal_form(over, GroebnerBasis((y,), order))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_weighted_substitution_past_the_field_width_raises(field,
                                                             monkeypatch):
    """Under weight 3 the weight row of u^e fills the fields from
    e = (BOUND + 2) // 3, long before the degree does; the substitution
    kernel checks that degree before any product."""
    monkeypatch.setattr(polyring.LIMITS, "max_degree", BOUND)
    order = WeightOrder((3, 0))
    packing = polyring._packing(order, 2)
    images = polyring._pack_images([Polynomial.variable(0, 2, field)],
                                   packing)
    empty = GroebnerBasis((), order)
    top = (BOUND - 1) // 3
    fits = Polynomial.monomial((top,), field)
    assert polyring._normal_form_at(fits, images, empty, 2) \
        == Polynomial.monomial((top, 0), field)
    with pytest.raises(ResourceLimitError, match=f"{polyring._WIDTH}-bit"):
        polyring._normal_form_at(Polynomial.monomial((top + 1,), field),
                                 images, empty, 2)


@PROPERTY
@given(data=st.data())
def test_pair_update_lcm_is_the_tuple_lcm(data):
    """Each pair the update enters into P carries the packed tuple lcm of
    its two leading monomials, row fields included."""
    weights, *_ = data.draw(weighted_monomials(3))
    order = WeightOrder(weights)
    packing = polyring._packing(order, 3)
    exps = st.lists(st.integers(0, 6), min_size=3, max_size=3).map(tuple)
    lms = data.draw(st.lists(exps, min_size=2, max_size=6, unique=True))
    records, P = [], {}
    for lm in lms:
        record = Polynomial.monomial(lm, QQ)._record(order)
        for i, j in polyring._update_pairs(records, record, P, order):
            assert P[i, j] == packing.pack(monomial_lcm(records[i][0], lm))
        records.append(record)


def weight_cases():
    """Seeded systems of test_reduction_kernel, each under a weight order
    with seeded weights, one of them 0."""
    rng = random.Random(5)
    for arity in (2, 3, 4):
        for field, _, gens, polys in cases(200 + arity, 20, arity):
            weights = [rng.randint(0, 3) for _ in range(arity)]
            weights[rng.randrange(arity)] = 0
            yield field, WeightOrder(weights), gens, polys


def test_unbounded_weight_basis_passes_the_checked_kernel(checked_engine):
    """Every reduction and S-pair of an unbounded WeightOrder run agrees
    with the reference, and the basis generates the degrevlex basis's
    ideal."""
    for field, order, gens, polys in weight_cases():
        gb = groebner(gens, order)
        full = groebner(gens, DEGREVLEX)
        assert all(normal_form(g, gb).is_zero for g in full)
        assert all(normal_form(g, full).is_zero for g in gb)
        for p in polys:
            assert normal_form(normal_form(p, gb), full) \
                == normal_form(p, full)
    assert checked_engine["reduce"] > 100 and checked_engine["s"] > 100


def test_weight_order_keeps_the_s_pair_sequence(monkeypatch):
    for _, order, gens, _ in weight_cases():
        ours, gb = s_pair_sequence(monkeypatch, gens, order,
                                   polyring._update_pairs)
        theirs, ref = s_pair_sequence(monkeypatch, gens, order, parent_update)
        assert ours == theirs
        assert all(same(g, r) for g, r in zip(gb, ref)) and len(gb) == len(ref)


# ---------------------------------------------------------------------------
# guards and planted faults


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_bound_refuses_a_non_homogeneous_generator(field):
    x, y = (Polynomial.variable(i, 2, field) for i in range(2))
    order = WeightOrder((1, 2))
    assert len(groebner([x * x - y], order, 4)) == 1     # weight 2 throughout
    with pytest.raises(HypothesisError, match="not homogeneous"):
        groebner([x * x - y, x - Polynomial.one(2, field)], order, 4)


def test_a_bounded_basis_refuses_a_heavier_normal_form():
    circle = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])
    m = pi0_mod._line_level(circle, 2)
    gb = m.bounded_basis(4)
    assert gb.bound == 4
    weights = m.weight_order.weights
    heavy = Polynomial.monomial(
        next(v for v in monomials_up_to(m.n_z, 3)
             if sum(w * e for w, e in zip(weights, v)) == 5), QQ)
    with pytest.raises(TruncationError, match="above the bound 4"):
        normal_form(heavy, gb)
    # at the bound it reduces, as the full basis does, up to the ideal
    light = reference_difference(m, circle.parse("x^2"))
    assert normal_form(light, m.algebra.gb()) == normal_form(
        normal_form(light, gb), m.algebra.gb())


def test_a_level_over_a_target_with_relations_has_no_weights():
    circle = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])
    m = mapspace_presentation(circle, A_of(QQ, ["t"], ["t^2 - t"]), 1)
    with pytest.raises(HypothesisError, match="free target"):
        m.bounded_basis(2)


def test_a_cut_bounded_one_below_its_weight_is_refused(monkeypatch):
    """The cut's bound D·T is the top weight of its differences: one less
    and the pinned comparison cannot be made."""
    bound = pi0_mod._weight_bound
    monkeypatch.setattr(pi0_mod, "_weight_bound",
                        lambda m, degree: bound(m, degree) - 1)
    with pytest.raises(TruncationError):
        test_bounded_cut_is_the_full_cut("circle-T2")


@pytest.mark.parametrize("relation, tower, pairs", [
    pytest.param("x^2 + y^2 - 1", 3, 150, id="circle-T3"),
    pytest.param(parabolas(4), 3, 500, id="four_parabolas-T3")])
def test_the_bounded_level_reduces_few_s_pairs(monkeypatch, relation, tower,
                                               pairs):
    """The full degrevlex levels reduce 525 and 884 S-pairs."""
    s_remainder, calls = polyring._s_remainder, []

    def spy(*args):
        calls.append(None)
        return s_remainder(*args)

    monkeypatch.setattr(polyring, "_s_remainder", spy)
    equalizer_subspace(A_of(QQ, ["x", "y"], [relation]), 2, tower)
    assert 0 < len(calls) < pairs
