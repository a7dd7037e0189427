"""Tests for the simplicial algebra machinery, Moore slices, cup and prisms."""

from __future__ import annotations

from math import comb

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from affpi0 import algebra, linalg, mapspace, simplicial
from affpi0.algebra import AlgebraMorphism, AlgebraPresentation, field_algebra
from affpi0.errors import HypothesisError
from affpi0.polyring import GF, QQ, Polynomial, WeightOrder
from affpi0.simplicial import (CosimplicialSpace, alternating_sum,
                               check_cosimplicial_identities,
                               check_simplicial_functoriality, cup_leibniz_check,
                               cup_product, degeneracy_map, delta_algebra,
                               face_map, moore_complex, prism_identities_check,
                               prism_map, simplicial_map, sing_h0)


def A_of(field, names, rels):
    return AlgebraPresentation(field, names, rels)


IDEMP = A_of(QQ, ["e"], ["e^2 - e"])


# ---------------------------------------------------------------------------
# the standard simplicial algebra


def test_delta_levels():
    assert delta_algebra(0, QQ).presentation.vars == ()
    assert delta_algebra(1, QQ).presentation.vars == ("x1",)
    assert delta_algebra(2, QQ).presentation.vars == ("x1", "x2")


def test_substitution_kills_unit_relation():
    d2 = delta_algebra(2, QQ)
    total = d2.x0()
    for i in range(1, 3):
        total = total + d2.vertex_class(i)
    assert total == Polynomial.one(2, QQ)


def test_simplicial_map_identity_and_monotonicity():
    ident = simplicial_map((0, 1, 2), 2, QQ)
    p = delta_algebra(2, QQ).presentation
    from affpi0.algebra import AlgebraMorphism
    assert ident == AlgebraMorphism.identity(p)
    with pytest.raises(ValueError):
        simplicial_map((1, 0), 1, QQ)


def test_faces_of_the_interval_are_evaluations():
    d0 = face_map(0, 1, QQ)   # x1 -> 1
    d1 = face_map(1, 1, QQ)   # x1 -> 0
    assert d0.images[0].constant_term() == 1
    assert d1.images[0].is_zero


def test_degeneracy_after_coface_is_identity():
    s0 = degeneracy_map(0, 0, QQ)
    for i in (0, 1):
        face = face_map(i, 1, QQ)
        comp = face.compose(s0)    # wrong order would not typecheck
        # s0 d0 = id at the simplicial level: F[D0] -> F[D1] -> F[D0]
    s0_level1 = degeneracy_map(0, 1, QQ)
    d0 = face_map(0, 2, QQ)
    # simplicial identity d0 s0 = id on F[Delta_1]
    assert s0_level1.compose(d0) != None  # composes
    comp = d0.compose(s0_level1)
    from affpi0.algebra import AlgebraMorphism
    assert comp == AlgebraMorphism.identity(delta_algebra(1, QQ).presentation)


def test_simplicial_functoriality_grid():
    rep = check_simplicial_functoriality(QQ, 3)
    assert rep["ok"]


# ---------------------------------------------------------------------------
# cosimplicial map spaces


def test_level_zero_is_the_algebra_slice():
    space = CosimplicialSpace(IDEMP, 1, 2, 1)
    assert space.levels[0].dimension == len(IDEMP.standard_monomials(2))


def test_trivial_algebra_all_levels_one_dimensional():
    space = CosimplicialSpace(field_algebra(QQ), 1, 2, 3)
    assert [lvl.dimension for lvl in space.levels] == [1, 1, 1, 1]
    cx = moore_complex(field_algebra(QQ), 1, 2, 2)
    assert cx.h0_dimension == 1
    assert cx.h1_dimension == 0


def test_cosimplicial_identities_idempotent_algebra():
    space = CosimplicialSpace(IDEMP, 1, 2, 3)
    rep = check_cosimplicial_identities(space)
    assert rep["ok"], rep["failures"]


def test_cosimplicial_identities_free_algebra():
    space = CosimplicialSpace(A_of(QQ, ["t"], []), 1, 2, 3)
    rep = check_cosimplicial_identities(space)
    assert rep["ok"], rep["failures"]


def test_moore_dd_zero_and_h0():
    cx = moore_complex(IDEMP, 1, 2, 3)
    assert cx.dd_zero
    assert cx.h0_dimension == 2
    assert cx.h1_dimension == 0


def test_moore_free_line_contractible():
    cx = moore_complex(A_of(QQ, ["t"], []), 1, 2, 2)
    assert cx.dd_zero
    assert cx.h0_dimension == 1
    assert cx.h1_dimension == 0


def test_sing_h0_desk_examples():
    res = sing_h0(IDEMP, 2, 2)
    assert [lvl.dimension for lvl in res.levels] == [2, 2]
    res_line = sing_h0(A_of(QQ, ["t"], []), 2, 2)
    assert [lvl.dimension for lvl in res_line.levels] == [1, 1]
    res_field = sing_h0(field_algebra(QQ), 1, 2)
    assert res_field.levels[0].dimension == 1


CIRCLE = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])


def test_truncation_level_zero_is_rejected():
    """At level 0 every face map is the identity, so the whole slice of the
    circle (5 at degree 2, against a true H^0 of 1) would pass as H^0."""
    with pytest.raises(HypothesisError, match="tower >= 1"):
        moore_complex(CIRCLE, 0, 2, 2)
    with pytest.raises(HypothesisError, match="tower >= 1"):
        sing_h0(CIRCLE, 0, 2)


def test_moore_complex_without_a_differential_has_no_h0():
    cx = moore_complex(CIRCLE, 1, 2, 0)
    assert cx.h0_dimension is None and cx.h1_dimension is None
    assert moore_complex(CIRCLE, 1, 2, 1).h0_dimension == 1


def test_sing_h0_matches_pi0_equalizer_route():
    from affpi0.pi0 import equalizer_subspace

    for a, deg in ((IDEMP, 2), (A_of(QQ, ["x"], ["x^3 - x"]), 2)):
        sres = sing_h0(a, 2, deg)
        eq = equalizer_subspace(a, deg, 2)
        assert sres.levels[-1].dimension == eq.dimension
        got = {e.to_string() for e in sres.levels[-1].basis}
        want = {e.to_string() for e in eq.basis}
        assert got == want


@pytest.mark.parametrize("a, degree, bases", [
    pytest.param(A_of(GF(3), ["x", "y"], ["y^2 - x^3"]), 3,
                 [["1", "y^2", "y^3"], ["1", "y^3"], ["1"]], id="cusp-F3"),
    pytest.param(A_of(GF(2), ["x", "y"], ["x*y - 1"]), 2,
                 [["1", "x^2", "y^2"], ["1"]], id="hyperbola-F2"),
    pytest.param(A_of(GF(5), ["x", "y"], ["(y - x^2)*(y - x^2 - 1)"]), 2,
                 [["1", "4*x^2 + y"]] * 2, id="two_parabolas-F5")])
def test_sing_h0_equals_the_equalizer_cut_at_every_tower_over_fp(a, degree,
                                                                 bases):
    """In characteristic p the level-T cut shrinks with T, and singular
    H^0 follows it level by level."""
    from affpi0.pi0 import equalizer_subspace

    levels = sing_h0(a, len(bases), degree).levels
    assert [lvl.tower for lvl in levels] == list(range(1, len(bases) + 1))
    for level, want in zip(levels, bases):
        cut = equalizer_subspace(a, degree, level.tower)
        assert [e.to_string() for e in level.basis] == want
        assert [e.to_string() for e in cut.basis] == want


def reference_sing_h0(a, tower, degree):
    """H^0 by the cosimplicial route `sing_h0` replaced: at each level d,
    the relations among the coboundaries d^0 - d^1 of the level-0 slice,
    taken through the checked structure maps of the full degrevlex levels
    of CosimplicialSpace(a, d, degree, 1)."""
    out = []
    for d in range(1, tower + 1):
        space = CosimplicialSpace(a, d, degree, 1)
        basis = space.levels[0].basis
        kernel = linalg.relations(
            [alternating_sum(space, 0, Polynomial.monomial(mono, a.field))
             for mono in basis], a.field)
        out.append(a.elements(basis, kernel))
    return out


def sing_h0_bases(a, tower, degree):
    return [level.basis for level in sing_h0(a, tower, degree).levels]


# (field, variables, relations, slice degree D, tower T)
SING_PINNED = {
    "node": (QQ, ["x", "y"], ["y^2 - x^2 - x^3"], 2, 2),
    "cusp": (QQ, ["x", "y"], ["y^2 - x^3"], 3, 2),
    "f3-cusp": (GF(3), ["x", "y"], ["y^2 - x^3"], 3, 3),
    "zero": (QQ, ["x", "y"], ["1"], 2, 3),
}


@pytest.mark.parametrize("name", sorted(SING_PINNED))
def test_sing_h0_is_the_cosimplicial_kernel(name):
    field, names, rels, degree, tower = SING_PINNED[name]
    a = A_of(field, names, rels)
    assert sing_h0_bases(a, tower, degree) \
        == reference_sing_h0(a, tower, degree)


SING_ALGEBRAS = [(["t"], ["t^2 - t"]), (["t"], []), (["t"], ["t^2"]),
                 (["x"], ["x^3 - x"]), (["x", "y"], ["x^2 + y^2 - 1"]),
                 (["x", "y"], ["y^2 - x^3"]), (["x", "y"], ["x*y - 1"]),
                 (["x", "y"], ["x*y"]), (["x", "y"], ["y^2 - y"]),
                 (["x", "y"], ["y^3 - x"]), (["u", "v"], ["u^2 - u", "v^2"]),
                 (["x", "y"], ["(y - x^2)*(y - x^2 - 1)"]),
                 (["x", "y"], ["1"])]


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(field=st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
       presentation=st.sampled_from(SING_ALGEBRAS),
       degree=st.integers(0, 3), tower=st.integers(1, 3))
def test_sing_h0_is_the_cosimplicial_kernel_on_a_grid(field, presentation,
                                                      degree, tower):
    a = A_of(field, *presentation)
    assert sing_h0_bases(a, tower, degree) \
        == reference_sing_h0(a, tower, degree)


# (field, variables, relations): Moore's H^0 at tower T is sing_h0's level T
MOORE_H0_ALGEBRAS = {
    "idempotent": (QQ, ["e"], ["e^2 - e"]),
    "three_points": (QQ, ["x"], ["x^3 - x"]),
    "dual_numbers": (QQ, ["t"], ["t^2"]),
    "circle": (QQ, ["x", "y"], ["x^2 + y^2 - 1"]),
    "cusp": (QQ, ["x", "y"], ["y^2 - x^3"]),
    "f2-hyperbola": (GF(2), ["x", "y"], ["x*y - 1"]),
    "f3-cusp": (GF(3), ["x", "y"], ["y^2 - x^3"]),
    "f3-y3_x": (GF(3), ["x", "y"], ["y^3 - x"]),
    "f5-two_parabolas": (GF(5), ["x", "y"], ["(y - x^2)*(y - x^2 - 1)"]),
    "f5-two_lines": (GF(5), ["x", "y"], ["y^2 - y"]),
}


@pytest.mark.parametrize("name", sorted(MOORE_H0_ALGEBRAS))
def test_moore_h0_is_sing_h0_at_the_top_level(name):
    """The cosimplicial route, with its checked structure maps, stays the
    independent cross-check of singular H^0."""
    a = A_of(*MOORE_H0_ALGEBRAS[name])
    for tower in (1, 2, 3):
        for degree in (1, 2, 3):
            assert moore_complex(a, tower, degree, 1).h0_dimension \
                == sing_h0(a, tower, degree).levels[-1].dimension


DOLD_KAN_ALGEBRAS = [field_algebra(QQ), A_of(QQ, ["t"], []),
                     A_of(QQ, ["t"], ["t^2"]), IDEMP,
                     A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"]),
                     A_of(GF(3), ["t"], ["t^2 - 1"])]


@pytest.mark.parametrize("tower, degree, levels",
                         [(1, 2, 2), (1, 2, 3), (2, 2, 2), (1, 1, 3)])
def test_moore_normalized_dimensions_obey_dold_kan(tower, degree, levels):
    """X^n splits as the sum over k of C(n, k) copies of N^k."""
    for a in DOLD_KAN_ALGEBRAS:
        cx = moore_complex(a, tower, degree, levels)
        dims = cx.normalized_dimensions
        assert len(dims) == levels + 1
        for n, level in enumerate(cx.space.levels):
            assert level.dimension == sum(comb(n, k) * dims[k]
                                          for k in range(n + 1))


def test_sing_h1_truncated_zero_for_desk_examples():
    for a in (field_algebra(QQ), A_of(QQ, ["t"], []), IDEMP):
        assert moore_complex(a, 1, 2, 2).h1_dimension == 0


# ---------------------------------------------------------------------------
# cup product


def test_cup_level_zero_is_algebra_product():
    space = CosimplicialSpace(IDEMP, 1, 2, 1)
    e = space.levels[0].mspace.algebra.parse(
        space.levels[0].mspace.algebra.vars[0])
    lvl, prod = cup_product(space, (0, e), (0, e))
    assert lvl == 0 and prod == e


def test_cup_needs_level_n_plus_m_in_the_space():
    space = CosimplicialSpace(IDEMP, 1, 2, 1)
    alg1 = space.levels[1].mspace.algebra
    c = alg1.parse(alg1.vars[0])
    with pytest.raises(HypothesisError, match="level n\\+m"):
        cup_product(space, (1, c), (1, c))


def test_cup_unit_law():
    space = CosimplicialSpace(IDEMP, 1, 2, 2)
    alg1 = space.levels[1].mspace.algebra
    one = Polynomial.one(space.levels[0].mspace.n_z, QQ)
    c = alg1.parse(alg1.vars[1])
    lvl, prod = cup_product(space, (0, one), (1, c))
    assert lvl == 1 and prod == alg1.nf(c)


def test_cup_leibniz_on_level_zero_pair():
    a = A_of(QQ, ["t"], ["t^2 - 1"])
    space = CosimplicialSpace(a, 1, 2, 2)
    alg0 = space.levels[0].mspace.algebra
    c = alg0.parse(alg0.vars[0])
    c2 = alg0.parse(f"{alg0.vars[0]}^2 + 1")
    assert cup_leibniz_check(space, (0, c), (0, c2))


def test_cup_commutative_on_h0():
    space = CosimplicialSpace(IDEMP, 1, 2, 2)
    alg0 = space.levels[0].mspace.algebra
    c = alg0.parse(alg0.vars[0])
    c2 = alg0.parse(f"1 + 2*{alg0.vars[0]}")
    left = cup_product(space, (0, c), (0, c2))
    right = cup_product(space, (0, c2), (0, c))
    assert left == right


def _count_functor_actions(monkeypatch) -> list:
    calls = []
    action = simplicial.functor_action

    def spy(*args):
        calls.append(args)
        return action(*args)

    monkeypatch.setattr(simplicial, "functor_action", spy)
    return calls


def _record_groebner_runs(monkeypatch) -> list:
    """(arity, order, bound) of every Buchberger run: A's own basis is
    built in `algebra`, a level's bounded basis in `mapspace`."""
    runs = []
    for module in (algebra, mapspace):
        def spy(gens, order, bound=None, run=module.groebner):
            gens = list(gens)
            runs.append((gens[0].arity if gens else None, order, bound))
            return run(gens, order, bound)

        monkeypatch.setattr(module, "groebner", spy)
    return runs


@pytest.mark.parametrize("tower", [1, 2, 3])
def test_sing_h0_builds_one_bounded_basis_per_tower_level(monkeypatch,
                                                          tower):
    """No structure map and no full level basis: level d's basis is
    truncated at weight D·d, and the only unbounded runs are A's own and
    those of free rings, which have no generators."""
    actions = _count_functor_actions(monkeypatch)
    runs = _record_groebner_runs(monkeypatch)
    a = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])
    sing_h0(a, tower, 2)
    assert actions == []
    bounded = [(order, bound) for _, order, bound in runs
               if bound is not None]
    assert [bound for _, bound in bounded] == [2 * d
                                               for d in range(1, tower + 1)]
    assert all(isinstance(order, WeightOrder) for order, _ in bounded)
    assert all(arity in (None, a.arity) for arity, _, bound in runs
               if bound is None)


def test_structure_maps_are_built_once_per_space(monkeypatch):
    calls = _count_functor_actions(monkeypatch)
    space = CosimplicialSpace(A_of(QQ, ["t"], ["t^2 - 1"]), 1, 2, 2)
    alg0 = space.levels[0].mspace.algebra
    c = alg0.parse(alg0.vars[0])
    one = space.levels[1].mspace.algebra.parse("1")
    first = cup_product(space, (0, c), (1, one))
    built = len(calls)
    assert built > 0
    assert cup_product(space, (0, c), (1, one)) == first
    assert len(calls) == built
    check_cosimplicial_identities(space)
    read = len(calls)
    check_cosimplicial_identities(space)
    space.differential_matrix(1)
    assert len(calls) == read


# ---------------------------------------------------------------------------
# prism maps


def test_prism_map_unit_preservation_and_morphism():
    for n in (0, 1, 2):
        for i in range(n + 1):
            morphism, src = prism_map(n, i, QQ)
            assert morphism.target == delta_algebra(n + 1, QQ).presentation


def test_prism_zero_case_images():
    morphism, _ = prism_map(0, 0, QQ)
    # the only source generator is the homotopy variable: x -> [x1]
    assert morphism.images[0] == delta_algebra(1, QQ).presentation.parse("x1")


def test_prism_identities_levels():
    for n in (0, 1, 2):
        rep = prism_identities_check(n, QQ)
        assert rep["ok"], rep["failures"]


def test_prism_identities_over_prime_field():
    rep = prism_identities_check(1, GF(5))
    assert rep["ok"]


def test_sing_h1_stabilization_table():
    line = A_of(QQ, ["t"], [])
    table = [moore_complex(line, d, 2, 2).h1_dimension for d in (1, 2)]
    assert table == [0, 0]


# ---------------------------------------------------------------------------
# planted faults: each check must be able to fail


def test_prism_identities_with_a_wrong_prism_map_fail(monkeypatch):
    """x -> 0 still gives a checked morphism, but its top face is x = 0."""
    real = simplicial.prism_map

    def planted(n, i, field):
        morphism, src = real(n, i, field)
        images = [*morphism.images[:-1],
                  Polynomial.zero(morphism.target.arity, field)]
        return AlgebraMorphism(src, morphism.target, images, check=True), src

    assert prism_identities_check(1, QQ)["ok"]
    monkeypatch.setattr(simplicial, "prism_map", planted)
    rep = prism_identities_check(1, QQ)
    assert not rep["ok"] and ("top", 0) in rep["failures"]


def test_cup_leibniz_with_unsigned_differential_fails(monkeypatch):
    a = A_of(QQ, ["t"], ["t^2 - 1"])
    space = CosimplicialSpace(a, 1, 2, 2)
    alg0 = space.levels[0].mspace.algebra
    c = alg0.parse(alg0.vars[0])
    c2 = alg0.parse(f"{alg0.vars[0]}^2 + 1")

    def unsigned(space, level, poly):
        target = space.levels[level + 1].mspace.algebra
        acc = Polynomial.zero(target.arity, space.field)
        for i in range(level + 2):
            face = simplicial._face_alpha(i, level + 1)
            acc = acc + space.structure_map(face, level + 1).apply_poly(poly)
        return target.nf(acc)

    assert cup_leibniz_check(space, (0, c), (0, c2))
    monkeypatch.setattr(simplicial, "alternating_sum", unsigned)
    assert not cup_leibniz_check(space, (0, c), (0, c2))


def test_moore_complex_with_an_unsigned_coboundary_fails(monkeypatch):
    """The matrix differential is read from `alternating_sum`, so an
    unsigned sum there breaks d∘d = 0."""
    a = A_of(QQ, ["t"], ["t^2 - 1"])

    def unsigned(space, level, poly):
        acc = Polynomial.zero(space.levels[level + 1].mspace.algebra.arity,
                              space.field)
        for i in range(level + 2):
            face = simplicial._face_alpha(i, level + 1)
            acc = acc + space.structure_map(face, level + 1).apply_poly(poly)
        return acc

    assert moore_complex(a, 1, 2, 2).dd_zero
    monkeypatch.setattr(simplicial, "alternating_sum", unsigned)
    assert not moore_complex(a, 1, 2, 2).dd_zero


def test_simplicial_functoriality_with_a_wrong_structure_map_fails(
        monkeypatch):
    """Maps F[Delta_2] -> F[Delta_2] with their images swapped."""
    real = simplicial.simplicial_map

    def planted(alpha, target_level, field):
        morphism = real(alpha, target_level, field)
        if len(alpha) == 3 and target_level == 2:
            return AlgebraMorphism(morphism.source, morphism.target,
                                   morphism.images[::-1], check=False)
        return morphism

    assert check_simplicial_functoriality(QQ, 2)["ok"]
    monkeypatch.setattr(simplicial, "simplicial_map", planted)
    assert not check_simplicial_functoriality(QQ, 2)["ok"]
