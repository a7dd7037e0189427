"""Tests for the path-component routes, idempotent solver, and pi0 scheme."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from affpi0 import derham, linalg, polyring
from affpi0 import pi0 as pi0_mod
from affpi0.algebra import (AlgebraPresentation, ElementRep, direct_sum,
                            field_algebra, tensor_product)
from affpi0.errors import (HypothesisError, PropertyViolationError,
                           ResourceLimitError, RingMismatchError,
                           UnsupportedFieldError)
from affpi0.matrix_homotopy import NCPoly, mat_mul
from affpi0.pi0 import (equalizer_membership, equalizer_subspace,
                        idempotent_search, iskp_subalgebra, pi0_presentation,
                        primitive_idempotents)
from affpi0.polyring import GF, QQ, Polynomial


def A_of(field, names, rels):
    return AlgebraPresentation(field, names, rels)


IDEMP = A_of(QQ, ["e"], ["e^2 - e"])
CUBIC = A_of(QQ, ["x"], ["x^3 - x"])


# ---------------------------------------------------------------------------
# equalizer route


def test_equalizer_idempotent_passes_depth_three():
    verdict = equalizer_membership(IDEMP, IDEMP.element("e"), 3)
    assert verdict.passed


def test_equalizer_free_variable_fails_at_level_one():
    a = A_of(QQ, ["t"], [])
    verdict = equalizer_membership(a, a.element("t"), 2)
    assert not verdict.passed
    assert verdict.level == 1
    # the residual is the linear coordinate of the level-one algebra
    assert verdict.residual.total_degree() == 1


def test_equalizer_membership_needs_a_checked_level():
    # tower 0 checks no level, so a pass would say nothing about t
    a = A_of(QQ, ["t"], [])
    with pytest.raises(HypothesisError, match="tower >= 1"):
        equalizer_membership(a, a.element("t"), 0)


def test_equalizer_membership_refuses_an_element_of_another_algebra():
    a = A_of(QQ, ["x"], ["x^2 - x"])
    with pytest.raises(RingMismatchError):
        equalizer_membership(a, A_of(QQ, ["x"], ["x^2"]).element("x"), 1)


def test_equalizer_unit_always_passes():
    verdict = equalizer_membership(CUBIC, CUBIC.one_element(), 3)
    assert verdict.passed


def test_equalizer_subspace_matches_derham_on_desk_examples():
    from affpi0.derham import derham_h0

    for a, deg in ((IDEMP, 2), (CUBIC, 2),
                   (A_of(QQ, ["x", "y"], ["x*y"]), 4)):
        eq = equalizer_subspace(a, deg, 2)
        dr = derham_h0(a, deg)
        assert eq.dimension == dr.dimension


def parabolas(copies: int) -> str:
    """The relation of `copies` disjoint parabolas y = x^2 + i."""
    return "*".join(f"(y - x^2 - {i})" for i in range(copies))


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
@pytest.mark.parametrize("relation, dimension, bound", [
    pytest.param("(y - x^3)*(y - x^3 - 1)", 1, 150, id="two_cubics"),
    pytest.param(parabolas(4), 2, 300, id="four_parabolas")])
def test_level_two_needs_few_insertions(monkeypatch, field, relation,
                                        dimension, bound):
    """Building M_2(A, F[t]) is one Buchberger run, and the sugar strategy
    keeps its insertions (calls of the pair update) under `bound`;
    smallest-lcm selection made 541 and 1352."""
    update, calls = polyring._update_pairs, []

    def spy(*args):
        calls.append(None)
        return update(*args)

    monkeypatch.setattr(polyring, "_update_pairs", spy)
    a = A_of(field, ["x", "y"], [relation])
    assert equalizer_subspace(a, 2, 2).dimension == dimension
    assert len(calls) < bound


LEVEL1_LAW_ALGEBRAS = {
    # algebras the tests use
    "three_points": (["x"], ["x^3 - x"]),
    "two_points": (["e"], ["e^2 - e"]),
    "four_points": (["x"], ["x^4 - 1"]),
    "line": (["t"], []),
    "circle": (["x", "y"], ["x^2 + y^2 - 1"]),
    "node": (["x", "y"], ["x*y"]),
    "cusp": (["x", "y"], ["y^2 - x^3"]),
    "nodal_cubic": (["x", "y"], ["y^2 - x^2 - x^3"]),
    "hyperbola": (["x", "y"], ["x*y - 1"]),
    "two_lines": (["x", "y"], ["y^2 - y"]),
    "line_and_point": (["x", "y"], ["x*y", "x^2 - x"]),
    # families whose component counts the slice misses
    "two_cubics": (["x", "y"], ["(y - x^3)*(y - x^3 - 1)"]),
    "two_hyperbolas": (["x", "y"], ["(x*y - 1)*(x*y - 2)"]),
    "two_parabolas": (["x", "y"], [parabolas(2)]),
    "three_parabolas": (["x", "y"], [parabolas(3)]),
    "four_parabolas": (["x", "y"], [parabolas(4)]),
    # nonreduced
    "x2": (["x"], ["x^2"]),
    "x3": (["x"], ["x^3"]),
    "x2_xy": (["x", "y"], ["x^2", "x*y"]),
}


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(LEVEL1_LAW_ALGEBRAS))
def test_derham_slice_kernel_is_the_level_one_equalizer_cut(name, degree):
    """In characteristic 0, da = 0 exactly when a passes the equalizer at
    level 1, since M_1(A, F[t]) maps to A ⊕ Ω¹_A by p -> x, q -> dx.  Both
    routes give the canonical (row-reduced) basis of their span."""
    a = A_of(QQ, *LEVEL1_LAW_ALGEBRAS[name])
    derham_span = [e.to_string() for e in derham.derham_h0(a, degree).basis]
    cut = [e.to_string() for e in equalizer_subspace(a, degree, 1).basis]
    assert derham_span == cut


# the top level each monotonicity case builds, at degree 2: level 3 where
# its basis is cheap; the plane curves' level 3 takes 0.5-4 s and the
# families' level 2 takes seconds, so they stop lower
LAW_TOWERS = {"circle": 2, "cusp": 2, "nodal_cubic": 2, "two_cubics": 1,
              "two_hyperbolas": 1, "two_parabolas": 1, "three_parabolas": 1,
              "four_parabolas": 1}
# over F_p, at degree 3, the cut shrinks with the level: over F_3 the
# cusp's cut is [1, y^2, y^3] at level 1, [1, y^3] at level 2, [1] at 3
FP_LAW_CASES = {"f2-cusp": (2, ["x", "y"], ["y^2 - x^3"], 3),
                "f2-hyperbola": (2, ["x", "y"], ["x*y - 1"], 2),
                "f3-cusp": (3, ["x", "y"], ["y^2 - x^3"], 3),
                "f3-artin_schreier": (3, ["x", "y"], ["y^3 - y - x^2"], 2),
                "f3-nonreduced_point": (3, ["x"], ["x^3*(x - 1)"], 3),
                "f5-four_points": (5, ["x"], ["x^4 - 1"], 3)}
MONOTONE_CASES = ([pytest.param(QQ, *LEVEL1_LAW_ALGEBRAS[name],
                                LAW_TOWERS.get(name, 3), id=name)
                   for name in sorted(LEVEL1_LAW_ALGEBRAS)]
                  + [pytest.param(GF(p), names, rels, tower, id=name)
                     for name, (p, names, rels, tower)
                     in FP_LAW_CASES.items()])


@pytest.mark.parametrize("field, names, rels, tower", MONOTONE_CASES)
def test_equalizer_subspace_passes_every_level_below_its_tower(field, names,
                                                              rels, tower):
    """The subspace builds level T alone, which holds only because the
    verdict is monotone: each basis element passes membership, which checks
    every level 1..T."""
    a = A_of(field, names, rels)
    for e in equalizer_subspace(a, 3 if field.char else 2, tower).basis:
        verdict = equalizer_membership(a, e, tower)
        assert verdict.passed, (e, verdict.level)


def test_equalizer_subspace_of_the_cusp_over_f3_shrinks_with_the_tower():
    cusp = A_of(GF(3), ["x", "y"], ["y^2 - x^3"])
    assert [[e.to_string() for e in equalizer_subspace(cusp, 3, t).basis]
            for t in (1, 2, 3)] == [["1", "y^2", "y^3"], ["1", "y^3"], ["1"]]


def test_equalizer_subspace_connected_circle():
    a = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])
    eq = equalizer_subspace(a, 4, 2)
    assert eq.dimension == 1


def test_equalizer_subspace_needs_a_checked_level():
    # level 0 is degenerate, so tower 0 would return the whole slice
    a = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])
    with pytest.raises(HypothesisError, match="tower >= 1"):
        equalizer_subspace(a, 2, 0)


# ---------------------------------------------------------------------------
# idempotents and k-th roots


def test_idempotents_of_three_point_scheme():
    rep = idempotent_search(CUBIC, 2)
    assert rep.complete
    assert rep.count == 8
    # the explicit idempotent (x^2 + x)/2
    halves = CUBIC.element("1/2*x^2 + 1/2*x")
    assert any(e == halves for e in rep.idempotents)
    assert len(primitive_idempotents(rep)) == 3


def test_idempotents_of_the_affine_line():
    rep = idempotent_search(A_of(QQ, ["x"], []), 3)
    assert rep.complete
    values = sorted(e.poly.constant_term() for e in rep.idempotents)
    assert values == [0, 1]


def test_idempotents_over_f2():
    rep = idempotent_search(A_of(GF(2), ["e"], ["e^2 - e"]), 1)
    assert rep.complete and rep.count == 4


def reference_primitives(report):
    """The scan `primitive_idempotents` replaced: e is primitive when no
    other nonzero f has f·e = f, every ordered pair multiplied."""
    nonzero = [e for e in report.idempotents if not e.is_zero]
    return [e for e in nonzero
            if not any(f != e and (f * e) == f for f in nonzero)]


# the finite algebras of this file, each searched whole at its top degree
FINITE_ALGEBRAS = {
    "three_points": (QQ, ["x"], ["x^3 - x"], 2),
    "two_points": (QQ, ["e"], ["e^2 - e"], 1),
    "four_points": (QQ, ["x", "y"], ["x^2 - x", "y^2 - y"], 2),
    "quartic": (QQ, ["x"], ["(x - 1)*(x + 2)*(x^2 - 3)"], 3),
    "f3-three_points": (GF(3), ["x"], ["x^3 - x"], 2),
    "f5-three_points": (GF(5), ["x"], ["x^3 - x"], 2),
    "f3-two_points": (GF(3), ["t"], ["t^2 - 1"], 1),
    "f5-two_points": (GF(5), ["t"], ["t^2 - 1"], 1),
}


@pytest.mark.parametrize("name", sorted(FINITE_ALGEBRAS))
def test_primitive_idempotents_multiply_each_pair_at_most_once(name,
                                                               monkeypatch):
    """Q[x]/(x^3 - x) has seven nonzero idempotents: at most 21 products,
    where the ordered scan made 42."""
    field, names, rels, degree = FINITE_ALGEBRAS[name]
    report = idempotent_search(A_of(field, names, rels), degree)
    assert report.complete
    want = reference_primitives(report)
    products = []
    multiply = ElementRep.__mul__

    def spy(self, other):
        products.append(None)
        return multiply(self, other)

    monkeypatch.setattr(ElementRep, "__mul__", spy)
    got = primitive_idempotents(report)
    n = sum(not e.is_zero for e in report.idempotents)
    assert len(products) <= n * (n - 1) // 2
    assert got == want


def test_primitive_idempotents_of_the_four_parabolas(monkeypatch):
    """pi0 at D=3 searches the slice at ⌊8²/4⌋ = 16 and finds 15 nonzero
    idempotents; every report it reads gives the reference's primitives,
    in the reference's order."""
    seen = []
    primitives = pi0_mod.primitive_idempotents

    def spy(report):
        got = primitives(report)
        seen.append((got, reference_primitives(report)))
        return got

    monkeypatch.setattr(pi0_mod, "primitive_idempotents", spy)
    a = A_of(QQ, *LEVEL1_LAW_ALGEBRAS["four_parabolas"])
    assert pi0_presentation(a, 3, 2).component_count == 4
    assert seen and all(got == want for got, want in seen)


def test_iskp_k2_matches_idempotents():
    rep = idempotent_search(IDEMP, 1)
    sub = iskp_subalgebra(IDEMP, 2, 1)
    assert {e.to_string() for e in rep.idempotents} == \
        {e.to_string() for e in sub.generators}


def test_iskp_cube_roots_contain_x():
    sub = iskp_subalgebra(CUBIC, 3, 2)
    assert sub.complete
    assert any(e == CUBIC.element("x") for e in sub.generators)


def test_iskp_free_line_constants_only():
    sub = iskp_subalgebra(A_of(QQ, ["x"], []), 3, 3)
    assert sub.complete
    values = sorted(e.poly.constant_term() for e in sub.generators)
    assert values == [-1, 0, 1]
    assert all(e.poly.total_degree() <= 0 for e in sub.generators)


def test_iskp_answers_where_the_eliminant_has_huge_coefficients():
    """Q[x]/((x+4)(x²−3)) = Q × Q(√3): e³ = e takes -1, 0 or 1 on each
    factor.  The solver's eliminant has a leading coefficient near 2·10²¹,
    whose divisors are too many to try one by one."""
    a = A_of(QQ, ["x"], ["(x + 4)*(x^2 - 3)"])
    sub = iskp_subalgebra(a, 3, 3)
    first = a.element("x^2 - 3").scale(Fraction(1, 13))  # 1 at x = -4
    second = a.element("1") - first
    want = {(first.scale(u) + second.scale(v)).poly
            for u in (-1, 0, 1) for v in (-1, 0, 1)}
    assert sub.complete and len(sub.generators) == 9
    assert {e.poly for e in sub.generators} == want


def test_iskp_char_divides_hypothesis():
    with pytest.raises(HypothesisError):
        iskp_subalgebra(A_of(GF(2), ["e"], ["e^2 - e"]), 3, 1)


def _brute_force_roots(a, degree):
    """Every slice vector over F_p with e^2 = e, and every one with e^3 = e,
    in lexicographic order."""
    monos = a.standard_monomials(degree)
    squares, cubes = [], []
    for vec in itertools.product(range(a.field.p), repeat=len(monos)):
        e = a.element(Polynomial.combination(a.arity, a.field, monos, vec))
        e2 = e * e
        if e2 == e:
            squares.append(e.to_string())
        if e2 * e == e:
            cubes.append(e.to_string())
    return squares, cubes


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("names,rels", [
    (["x"], ["x^3 - x"]),
    (["t"], ["t^2 - 1"]),
    (["x", "y"], ["x^2 + y^2 - 1"]),
    (["x", "y"], ["y^2 - y"]),
])
def test_root_solvers_match_brute_force_over_fp(p, names, rels):
    a = A_of(GF(p), names, rels)
    for degree in range(3):
        squares, cubes = _brute_force_roots(a, degree)
        rep = idempotent_search(a, degree)
        sub = iskp_subalgebra(a, 3, degree)
        assert rep.complete and sub.complete
        assert [e.to_string() for e in rep.idempotents] == squares
        assert [e.to_string() for e in sub.generators] == cubes


@pytest.mark.parametrize("field,degree", [(QQ, 5), (GF(5), 4)])
def test_circle_idempotents_at_high_degree(field, degree):
    rep = idempotent_search(A_of(field, ["x", "y"], ["x^2 + y^2 - 1"]),
                            degree)
    assert rep.complete
    assert [e.to_string() for e in rep.idempotents] == ["0", "1"]


def test_idempotent_search_solves_over_the_level_one_cut(monkeypatch):
    """Over Q, and over F_p on a finite algebra, the search builds level 1
    once, reads one cut of it, and hands no system to the solver."""
    levels, cuts = [], []
    line_level, cut = pi0_mod._line_level, pi0_mod._cut

    def level_spy(alg, d):
        levels.append(d)
        return line_level(alg, d)

    def cut_spy(*args):
        cuts.append(args[1])
        return cut(*args)

    monkeypatch.setattr(pi0_mod, "_line_level", level_spy)
    monkeypatch.setattr(pi0_mod, "_cut", cut_spy)
    monkeypatch.setattr(pi0_mod, "solve_system", None)
    for a, degree, count in (
            (A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"]), 4, 2),
            (A_of(GF(5), ["x"], ["x^3 - x"]), 2, 8)):
        levels.clear()
        cuts.clear()
        report = idempotent_search(a, degree)
        assert levels == [1] and cuts == [degree]
        assert report.complete and report.count == count


def with_limits(**low):
    saved = dict(vars(polyring.LIMITS))
    polyring.set_limits(**low)
    return saved


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_the_algebra_the_cut_generates_is_guarded(field):
    a = A_of(field, ["x"], ["x^3 - x"])
    saved = with_limits(max_split_dim=2)
    try:
        with pytest.raises(ResourceLimitError, match="max_split_dim"):
            idempotent_search(a, 2)
    finally:
        polyring.set_limits(**saved)
    assert idempotent_search(a, 2).count == 8


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_the_sums_of_atoms_on_the_slice_are_guarded(field):
    a = A_of(field, ["x"], ["x^3 - x"])
    saved = with_limits(max_factors=2)
    try:
        with pytest.raises(ResourceLimitError, match="max_factors"):
            idempotent_search(a, 2)
    finally:
        polyring.set_limits(**saved)
    assert idempotent_search(a, 2).count == 8


def test_a_berlekamp_element_that_does_not_split_is_a_violation(
        monkeypatch):
    """A planted root search that drops a root leaves a minimal polynomial
    of the Berlekamp subspace unsplit, and the split refuses it."""
    from affpi0 import factor
    roots_mod = factor.roots_mod
    monkeypatch.setattr(factor, "roots_mod", lambda f, p: roots_mod(f, p)[1:])
    with pytest.raises(PropertyViolationError, match="does not split"):
        idempotent_search(A_of(GF(5), ["x"], ["x^3 - x"]), 2)


def test_a_split_without_a_primitive_element_is_a_resource_limit():
    """Q[x,y]/(x, y)², handed its whole degree-1 slice as the cut (its true
    cut is the constants): every element h has (h − h(0))² = 0, so no
    minimal polynomial reaches the dimension 3."""
    a = A_of(QQ, ["x", "y"], ["x^2", "x*y", "y^2"])
    slice_monos = a.standard_monomials(1)
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    with pytest.raises(ResourceLimitError, match="primitive element"):
        pi0_mod._root_solutions(a, 2, slice_monos, identity)


# ---------------------------------------------------------------------------
# pi0 presentation


def test_pi0_three_points():
    res = pi0_presentation(CUBIC, 2)
    assert res.dimension == 3
    assert res.component_count == 3
    assert res.idempotents.count == 8
    # the presentation includes the inclusion morphism back into A
    assert res.inclusion.source == res.presentation


def test_pi0_circle_single_point():
    a = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])
    res = pi0_presentation(a, 4, tower=1)
    assert res.dimension == 1
    assert res.component_count == 1


def test_pi0_idempotent_two_points():
    res = pi0_presentation(IDEMP, 2)
    assert res.dimension == 2
    assert res.component_count == 2
    # presentation is a two-point scheme: some y-combination is idempotent
    pres = res.presentation
    assert pres.dimension() == 2


def test_pi0_refuses_prime_fields():
    with pytest.raises(UnsupportedFieldError):
        pi0_presentation(A_of(GF(3), ["x"], ["x^3 - x"]), 2)


def test_pi0_presentation_needs_a_checked_level():
    # tower 0 would skip the equalizer cross-check of the de Rham kernel
    circle = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])
    with pytest.raises(HypothesisError, match="tower >= 1"):
        pi0_presentation(circle, 2, 0)


def test_pi0_of_ground_field():
    res = pi0_presentation(field_algebra(QQ), 2)
    assert res.dimension == 1 and res.component_count == 1


@pytest.mark.parametrize("names, rels, degrees, count", [
    (["x"], ["x^3 - x"], (0, 1, 2), 3),
    (["x", "y"], ["x^2 - x", "y^2 - y"], (0, 1, 2), 4),
    (["x"], ["(x - 1)*(x + 2)*(x^2 - 3)"], (1,), 3),
])
def test_pi0_counts_components_of_a_finite_algebra_beyond_the_slice(
        names, rels, degrees, count):
    # the slice misses idempotents; the count comes from all of A
    a = A_of(QQ, names, rels)
    for degree in degrees:
        assert pi0_presentation(a, degree, 2).component_count == count


def seeded_four_roots(seed: int) -> str:
    """Four distinct integer roots in -9..9, drawn from the seed."""
    roots = random.Random(seed).sample(range(-9, 10), 4)
    return "*".join(f"(x - ({r}))" for r in roots)


# étale algebras on which the lex solve of e² = e tripped SOLVE_GUARD or
# ran for seconds: (relation, component count)
ETALE_ROWS = {
    "four-lines": ("(x - 1)*(x + 2)*(x - 4)*(x + 5)", 4),
    "lines-and-a-conic": ("(x - 3)*x*(x^2 + 2)", 3),
    "five-lines": ("x*(x - 1)*(x - 2)*(x - 3)*(x - 4)", 5),
    **{f"seeded-{seed}": (seeded_four_roots(seed), 4)
       for seed in range(1, 6)},
}


def test_pi0_whole_algebra_search_answers_the_etale_rows():
    """Searched whole, each row has 2^c idempotents and c components."""
    for relation, count in ETALE_ROWS.values():
        a = A_of(QQ, ["x"], [relation])
        whole = idempotent_search(a, a.dimension() - 1)
        assert whole.complete and whole.count == 2 ** count
        assert len(primitive_idempotents(whole)) == count
        assert pi0_presentation(a, 1, 2).component_count == count


@pytest.mark.parametrize("names, rels, degree, count", [
    pytest.param(["x", "y"], [parabolas(3)], 2, 3, id="3-2-3"),
    pytest.param(["x", "y"], [parabolas(3)], 4, 3, id="3-4-3"),
    pytest.param(["x", "y"], [parabolas(4)], 2, 4, id="4-2-4"),
    pytest.param(["x", "y"], [parabolas(4)], 4, 4, id="4-4-4"),
    pytest.param(["x", "y", "z"], [parabolas(3), "z - x"], 2, None,
                 id="graph-3-2-None"),
    pytest.param(["x", "y", "z"], [parabolas(4), "z - x"], 2, None,
                 id="graph-4-2-None"),
    pytest.param(["x", "y", "z"], [parabolas(4), "z - x"], 4, None,
                 id="graph-4-4-None")])
def test_pi0_never_counts_below_the_presented_subalgebra(names, rels, degree,
                                                         count):
    """The presented subalgebra's idempotents are idempotents of A, so its
    count bounds A's from below; a slice count under it is withheld.  The
    parabolas are principal, so they are counted exactly; their graphs
    (x = z) are not, and keep the lower-bound rule.  At tower 1 and at the
    CLI's default tower 2."""
    a = A_of(QQ, names, rels)
    for tower in (1, 2):
        assert pi0_presentation(a, degree, tower).component_count == count


# principal hypersurfaces whose idempotents the slice at degree 1 or 2
# misses, and their component counts
PRINCIPAL_COUNTS = {"two_cubics": 2, "three_parabolas": 3,
                    "two_parabolas": 2, "two_hyperbolas": 2,
                    "four_parabolas": 4}


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", sorted(PRINCIPAL_COUNTS))
def test_pi0_counts_a_principal_hypersurface_exactly(name, degree):
    """A = F[x, y]/(f): every idempotent has a normal form of degree at most
    ⌊deg(f)²/4⌋ (Jelonek's effective Nullstellensatz), so a complete search
    there counts exactly, at any slice degree."""
    a = A_of(QQ, *LEVEL1_LAW_ALGEBRAS[name])
    assert pi0_presentation(a, degree, 1).component_count \
        == PRINCIPAL_COUNTS[name]


def test_pi0_counts_a_principal_hypersurface_with_nilpotents():
    """Q[x,y]/(y^2) is principal, so the complete search at ⌊2²/4⌋ = 1
    holds every idempotent, and the nilpotent y withholds nothing."""
    res = pi0_presentation(A_of(QQ, ["x", "y"], ["y^2"]), 2)
    assert res.component_count == 1
    assert res.dimension == 1
    assert res.idempotents.count == 2 and res.idempotents.complete


def test_pi0_with_a_dropped_derham_element_fails(monkeypatch):
    """The elements left still pass the equalizer, so only the comparison
    with the level-1 cut sees the loss."""
    kernel = pi0_mod.derham_h0

    def short(a, degree):
        k = kernel(a, degree)
        k.basis = k.basis[:-1]
        return k

    monkeypatch.setattr(pi0_mod, "derham_h0", short)
    with pytest.raises(PropertyViolationError, match="level-1 equalizer"):
        pi0_presentation(CUBIC, 2)


def test_pi0_with_a_derham_basis_of_the_wrong_span_fails(monkeypatch):
    """A kernel basis of the cut's dimension but another span: comparing
    dimensions would miss it, comparing canonical bases does not."""
    kernel = pi0_mod.derham_h0

    def moved(a, degree):
        k = kernel(a, degree)
        assert k.basis == [a.one_element()]
        k.basis = [a.element("x")]
        return k

    monkeypatch.setattr(pi0_mod, "derham_h0", moved)
    circle = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])
    with pytest.raises(PropertyViolationError, match="level-1 equalizer"):
        pi0_presentation(circle, 2)


def _record_line_levels(monkeypatch) -> list:
    levels = []
    present = pi0_mod.mapspace_presentation

    def spy(a, b, d):
        levels.append(d)
        return present(a, b, d)

    monkeypatch.setattr(pi0_mod, "mapspace_presentation", spy)
    return levels


def test_pi0_presentation_never_builds_level_zero(monkeypatch):
    """Nor any level above 1, at any tower: the de Rham kernel is checked
    against the level-1 cut alone."""
    levels = _record_line_levels(monkeypatch)
    for tower in (1, 2, 3):
        levels.clear()
        pi0_presentation(CUBIC, 2, tower)
        assert levels == [1], tower


def test_equalizer_routes_never_build_level_zero(monkeypatch):
    """Membership reports the first failing level, so it builds each; the
    subspace builds its top level alone."""
    levels = _record_line_levels(monkeypatch)
    assert equalizer_membership(IDEMP, IDEMP.element("e"), 2).passed
    equalizer_subspace(IDEMP, 2, 2)
    assert levels == [1, 2, 2]


# ---------------------------------------------------------------------------
# noncommutative witness and functor properties


def x_power(k: int) -> NCPoly:
    """x^k for the central variable x."""
    return NCPoly({((), k): Fraction(1)})


def x_coefficient(p: NCPoly, k: int) -> NCPoly:
    """The coefficient of x^k in p, a combination of words alone."""
    return NCPoly({(w, 0): c for (w, kk), c in p.terms.items() if kk == k})


def pnc_zero_witness() -> dict:
    """The matrix family killing the noncommutative path-component functor.

    Verifies, over noncommuting symbols a, b with a central x, that
    a -> [[a, a·x], [0, 0]] is linear and multiplicative, and that a nonzero
    entry yields a nonconstant polynomial (nonzero x-coefficient).
    """
    a = NCPoly.sym("a")
    b = NCPoly.sym("b")
    x = x_power(1)
    zero = NCPoly({})

    def image(sym: NCPoly):
        return [[sym, sym * x], [zero, zero]]

    multiplicative = mat_mul(image(a), image(b)) == image(a * b)
    lin = all(s == u + v.scale(3)
              for rows in zip(image(a + b.scale(3)), image(a), image(b))
              for s, u, v in zip(*rows))
    x_coeff = x_coefficient(image(a)[0][1], 1)
    nonconstant = (not x_coeff.is_zero) and x_coeff == a
    report = {"multiplicative": multiplicative, "linear": lin,
              "nonconstant_for_nonzero": nonconstant}
    report["ok"] = all(report.values())
    return report


def functor_property_checks(which: str, a: AlgebraPresentation,
                            b: AlgebraPresentation | None = None,
                            degree: int = 3, tower: int = 2) -> dict:
    """Compare both sides of a preservation law via the de Rham route.

    "directsum" compares the dimensions of the computed subalgebras.
    "tensor" compares the tensor's kernel on the degree-D slice with
    sum_{i+j<=D} a_i·b_j, where a_i is the dimension of the factor's kernel
    in degree exactly i: the slice of A ⊗ B is filtered by total degree, so
    the plain product of the factors' slice dimensions overcounts.  The
    tensor law is proven for algebraically closed fields; here it is
    checked on examples, never asserted in general.  "unital-equality"
    checks the computable consequence of the c/cu comparison: the
    equalizer route agrees with the de Rham kernel.
    """
    if which in ("directsum", "tensor") and b is None:
        raise HypothesisError(f"the {which} check needs a second algebra")
    if which == "directsum":
        ds, _, _ = direct_sum(a, b)
        left = derham.derham_h0(ds, degree).dimension
        right = (derham.derham_h0(a, degree).dimension
                 + derham.derham_h0(b, degree).dimension)
        ok = left == right
        detail = {"sum_dim": left, "component_dims": right}
    elif which == "tensor":
        t = tensor_product(a, b)
        left = derham.derham_h0(t, degree).dimension
        steps_a = _degree_steps(derham.derham_h0(a, degree), degree)
        steps_b = _degree_steps(derham.derham_h0(b, degree), degree)
        right = sum(steps_a[i] * steps_b[j] for i in range(degree + 1)
                    for j in range(degree + 1 - i))
        ok = left == right
        detail = {"tensor_dim": left, "product_dims": right,
                  "note": "verified on this example; the general law assumes "
                          "an algebraically closed field"}
    elif which == "unital-equality":
        kernel = derham.derham_h0(a, degree)
        eq = pi0_mod.equalizer_subspace(a, degree, tower)
        ok = kernel.dimension == eq.dimension and all(
            _in_elem_span(k, eq.basis, a) for k in kernel.basis)
        detail = {"derham_dim": kernel.dimension, "equalizer_dim": eq.dimension}
    else:
        raise ValueError(f"unknown check {which!r}")
    if not ok:
        raise PropertyViolationError(f"functor property {which} failed",
                                     witness=detail)
    return {"ok": True, "which": which, **detail}


def _degree_steps(kernel, degree: int) -> list[int]:
    """dim(K ∩ slice<=i) - dim(K ∩ slice<=i-1) for i = 0..degree, each
    dimension read off as dim K minus the rank of K's terms above degree i."""
    monos = sorted({m for e in kernel.basis for m in e.poly.terms})
    rows = [e.poly.coefficients(monos) for e in kernel.basis]
    dims = []
    for i in range(degree + 1):
        high = [c for c, m in enumerate(monos) if sum(m) > i]
        dims.append(kernel.dimension - linalg.rank(
            [[row[c] for c in high] for row in rows], kernel.algebra.field))
    return [d - prev for d, prev in zip(dims, [0] + dims)]


def _in_elem_span(elem, basis, a: AlgebraPresentation) -> bool:
    monos = sorted({m for e in [*basis, elem] for m in e.poly.terms})
    return linalg.in_span([e.poly.coefficients(monos) for e in basis],
                          elem.poly.coefficients(monos), a.field)


def test_pnc_zero_witness():
    rep = pnc_zero_witness()
    assert rep["ok"]
    assert rep["multiplicative"] and rep["nonconstant_for_nonzero"]


def test_pnc_zero_witness_linearity_fails_on_a_dropped_term(monkeypatch):
    """A product that keeps only the left factor's first term is not linear
    in that factor, and the witness must say so."""
    def first_term_only(self, other):
        return NCPoly(dict(list(self.terms.items())[:1]))

    monkeypatch.setattr(NCPoly, "__mul__", first_term_only)
    rep = pnc_zero_witness()
    assert not rep["linear"] and not rep["ok"]


def test_functor_directsum_preservation():
    ds_report = functor_property_checks("directsum", IDEMP, field_algebra(QQ),
                                        degree=2)
    assert ds_report["ok"] and ds_report["sum_dim"] == 3


def test_functor_tensor_preservation_example():
    rep = functor_property_checks("tensor", A_of(QQ, ["x"], []), IDEMP,
                                  degree=3)
    assert rep["ok"] and rep["tensor_dim"] == 2


TENSOR_PAIRS = {
    "idemp-cubic": (IDEMP, CUBIC),
    "line-idemp": (A_of(QQ, ["t"], []), IDEMP),
    "cubic-field": (CUBIC, field_algebra(QQ)),
    "idemp-idemp": (IDEMP, IDEMP),
    "cubic-cubic": (CUBIC, CUBIC),
    "circle-idemp": (A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"]), IDEMP),
    "parabolas-idemp": (A_of(QQ, ["x", "y"], ["(y - x^2)*(y - x^2 - 1)"]),
                        IDEMP),
    "idemp_y-cubic": (A_of(QQ, ["y"], ["y^2 - y"]), CUBIC),
}


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("pair", sorted(TENSOR_PAIRS))
def test_functor_tensor_matches_the_degree_filtration(pair, degree):
    """On the degree-D slice the tensor's kernel has dimension
    sum_{i+j<=D} a_i·b_j; the plain product of the factors' slice
    dimensions overcounts, e.g. 4 against 3 for IDEMP ⊗ CUBIC at D = 1."""
    a, b = TENSOR_PAIRS[pair]
    rep = functor_property_checks("tensor", a, b, degree=degree)
    assert rep["ok"] and rep["tensor_dim"] == rep["product_dims"]


def test_functor_tensor_with_a_short_kernel_fails(monkeypatch):
    """Dropping one basis element of the de Rham kernel of the tensor
    product (the only two-variable algebra in the check) leaves 5 against
    the factors' filtered count 6."""
    assert functor_property_checks("tensor", IDEMP, CUBIC, degree=3)["ok"]
    kernel = derham.derham_h0

    def planted(a, degree):
        k = kernel(a, degree)
        if a.arity == 2:
            k.basis = k.basis[:-1]
        return k

    monkeypatch.setattr(derham, "derham_h0", planted)
    with pytest.raises(PropertyViolationError) as err:
        functor_property_checks("tensor", IDEMP, CUBIC, degree=3)
    assert err.value.witness["tensor_dim"] == 5
    assert err.value.witness["product_dims"] == 6


def test_functor_tensor_with_ground_field():
    rep = functor_property_checks("tensor", CUBIC, field_algebra(QQ), degree=2)
    assert rep["ok"] and rep["tensor_dim"] == 3


@pytest.mark.parametrize("which", ["directsum", "tensor"])
def test_functor_check_of_a_pair_needs_the_second_algebra(which):
    with pytest.raises(HypothesisError):
        functor_property_checks(which, IDEMP, degree=2)


def test_functor_unital_equality_routes_agree():
    rep = functor_property_checks("unital-equality", CUBIC, degree=2, tower=2)
    assert rep["ok"] and rep["derham_dim"] == rep["equalizer_dim"] == 3


def test_functor_directsum_with_a_lost_basis_element_fails(monkeypatch):
    import dataclasses

    ds, _, _ = direct_sum(IDEMP, field_algebra(QQ))
    real = derham.derham_h0

    def planted(a, degree):
        kernel = real(a, degree)
        if a == ds:
            return dataclasses.replace(kernel, basis=kernel.basis[1:])
        return kernel

    monkeypatch.setattr(derham, "derham_h0", planted)
    with pytest.raises(PropertyViolationError, match="directsum"):
        functor_property_checks("directsum", IDEMP, field_algebra(QQ),
                                degree=2)


def test_functor_unital_equality_outside_the_derham_span_fails(monkeypatch):
    """[x] has the dimension of the circle's H^0 slice but not its span {1}."""
    circle = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])
    assert functor_property_checks("unital-equality", circle, degree=2)["ok"]

    def planted(a, degree, tower):
        return pi0_mod.EqualizerSubspace(a, degree, tower, [a.element("x")])

    monkeypatch.setattr(pi0_mod, "equalizer_subspace", planted)
    with pytest.raises(PropertyViolationError, match="unital-equality"):
        functor_property_checks("unital-equality", circle, degree=2)


def test_idempotents_live_in_derham_kernel():
    for a, deg in ((CUBIC, 2), (IDEMP, 1)):
        kernel = derham.derham_h0(a, deg)
        for e in idempotent_search(a, deg).idempotents:
            assert _in_elem_span(e, kernel.basis, a)


def test_idempotent_count_is_power_of_components():
    res = pi0_presentation(CUBIC, 2)
    assert res.idempotents.count == 2 ** res.component_count


def test_pi0_of_zero_algebra_is_empty():
    zero = A_of(QQ, ["t"], ["t", "t - 1"])
    assert zero.is_zero_algebra()
    res = pi0_presentation(zero, 2)
    assert res.dimension == 0
    assert res.component_count == 0


def test_two_affine_lines_two_components():
    a = A_of(QQ, ["x", "y"], ["y^2 - y"])
    res = pi0_presentation(a, 2)
    assert res.dimension == 2
    assert res.component_count == 2
    prims = primitive_idempotents(res.idempotents)
    strings = sorted(e.to_string() for e in prims)
    assert strings == ["-y + 1", "y"]


def test_line_plus_point_two_components():
    a = A_of(QQ, ["x", "y"], ["x*y", "x^2 - x"])
    res = pi0_presentation(a, 2)
    assert res.dimension == 2
    assert res.component_count == 2


def test_pi0_count_withheld_when_the_slice_has_nilpotents():
    """Q[x,y]/(y^2, xy) is infinite-dimensional, not principal, and y is
    nilpotent, so the complete idempotent search {0, 1} gives no component
    count."""
    res = pi0_presentation(A_of(QQ, ["x", "y"], ["y^2", "x*y"]), 2)
    assert res.component_count is None
    assert res.dimension == 1
    assert res.idempotents.count == 2 and res.idempotents.complete
