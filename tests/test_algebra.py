"""Tests for presented algebras, morphisms, and the basic constructions."""

from __future__ import annotations

import random

import pytest

from affpi0 import algebra, polyring
from affpi0.algebra import (AlgebraMorphism, AlgebraPresentation,
                            direct_sum, enumerate_hom, enumerate_points,
                            field_algebra, load_algebra, load_morphism,
                            polynomial_extension, tensor_morphism,
                            tensor_product)
from affpi0.errors import (MorphismError, RingMismatchError,
                           UnsupportedFieldError)
from affpi0.polyring import GF, QQ, Polynomial, groebner, normal_form


def A_of(field, names, rels):
    return AlgebraPresentation(field, names, rels)


IDEMP = A_of(QQ, ["t"], ["t^2 - t"])
CUBIC = A_of(QQ, ["x"], ["x^3 - x"])


# ---------------------------------------------------------------------------
# morphism validation


def test_morphism_check_point_valid():
    f = AlgebraMorphism(A_of(QQ, ["t"], ["t^2 - t"]), field_algebra(QQ), ["1"])
    assert f.images[0].constant_term() == 1


def test_morphism_check_point_invalid():
    with pytest.raises(MorphismError):
        AlgebraMorphism(IDEMP, field_algebra(QQ), ["2"])


def test_morphism_check_into_circle_algebra():
    src = A_of(QQ, ["t"], ["t^2 - 1"])
    dst = A_of(QQ, ["x"], ["x^2 - 1"])
    f = AlgebraMorphism(src, dst, ["x"])
    assert f.images[0] == dst.parse("x")


def test_identity_and_composition():
    f = AlgebraMorphism(A_of(QQ, ["s"], []), A_of(QQ, ["t"], []), ["t^2"])
    g = AlgebraMorphism(A_of(QQ, ["t"], []), A_of(QQ, ["x"], []), ["x"])
    comp = g.compose(f)
    assert comp.images[0] == g.target.parse("x^2")
    ident = AlgebraMorphism.identity(f.source)
    assert f.compose(ident) == f


def test_compose_associative_on_validated():
    a = A_of(QQ, ["s"], ["s^2 - s"])
    b = A_of(QQ, ["t"], ["t^2 - t"])
    c = A_of(QQ, ["u"], ["u^2 - u"])
    d = field_algebra(QQ)
    f = AlgebraMorphism(a, b, ["t"])
    g = AlgebraMorphism(b, c, ["u"])
    h = AlgebraMorphism(c, d, ["1"])
    assert h.compose(g).compose(f) == h.compose(g.compose(f))


# ---------------------------------------------------------------------------
# tensor and direct sum


def test_tensor_dimension_multiplies():
    a = A_of(QQ, ["x"], ["x^2"])
    b = A_of(QQ, ["y"], ["y^2"])
    t = tensor_product(a, b)
    assert t.vars == ("x_1", "y_2")
    assert t.dimension() == 4


def test_tensor_with_field_is_identity_up_to_renaming():
    a = A_of(QQ, ["x"], ["x^3 - x"])
    t = tensor_product(a, field_algebra(QQ))
    assert t.dimension() == 3


def test_tensor_of_split_f2_algebras_has_four_points():
    a = A_of(GF(2), ["t"], ["t^2 - t"])
    b = A_of(GF(2), ["s"], ["s^2 - s"])
    t = tensor_product(a, b)
    assert len(enumerate_points(t)) == 4


def test_direct_sum_of_fields():
    ds, p1, p2 = direct_sum(field_algebra(QQ), field_algebra(QQ))
    assert ds.vars == ("e",)
    assert ds.dimension() == 2


def test_direct_sum_dimension_adds():
    a = A_of(QQ, ["x"], ["x^2"])
    ds, p1, p2 = direct_sum(a, field_algebra(QQ))
    assert ds.dimension() == 3


def test_direct_sum_points_over_f2():
    ds, _, _ = direct_sum(field_algebra(GF(2)), field_algebra(GF(2)))
    assert len(enumerate_points(ds)) == 2


def test_direct_sum_projections_surjective():
    a = A_of(QQ, ["x"], ["x^2 - 1"])
    b = A_of(QQ, ["y"], ["y^3"])
    ds, p1, p2 = direct_sum(a, b)
    # generator images of p1 cover the generators of a
    assert p1.images[0] == a.parse("x")
    assert p2.images[1] == b.parse("y")
    # a relation of the sum maps to zero both ways
    for r in ds.relations:
        assert p1.apply_poly(r).is_zero
        assert p2.apply_poly(r).is_zero


def _tensor_battery(field):
    """Tensor products of every ordered pair of small factors, a zero
    algebra, a free ring and the 0-variable ring among them, plus nested
    tensors on either side."""
    circle = A_of(field, ["x", "y"], ["x^2 + y^2 - 1"])
    pieces = [circle, A_of(field, ["x"], ["x^3 - x"]),
              A_of(field, ["x", "y"], ["y^2 - x^3 - x^2", "x*y^2 - y"]),
              A_of(field, ["u"], ["u^2", "u - 1"]),
              A_of(field, ["s", "t"], []), field_algebra(field)]
    for a in pieces:
        for b in pieces:
            yield tensor_product(a, b)
    for a in pieces:
        inner = tensor_product(a, circle)
        yield tensor_product(inner, pieces[1])
        yield tensor_product(pieces[2], inner)


def _sample_polys(arity, field, rng):
    for _ in range(4):
        terms = {tuple(rng.randrange(4) for _ in range(arity)):
                 field.scalar(rng.randrange(1, 6)) for _ in range(5)}
        yield Polynomial(arity, field, terms)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_tensor_basis_is_the_reduced_basis_of_its_relations(field):
    """The factors' bases side by side equal Buchberger's reduced basis of
    the tensor's relations, as a set, and give the same normal forms."""
    rng = random.Random(9)
    for t in _tensor_battery(field):
        reference = groebner(t.relations)
        assert set(t.gb()) == set(reference)
        for p in _sample_polys(t.arity, field, rng):
            assert t.nf(p) == normal_form(p, reference)


def test_tensor_and_extension_bases_run_no_buchberger(monkeypatch):
    a = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])
    b = A_of(QQ, ["t"], ["t^3 - t"])
    a.gb(), b.gb()
    calls = []
    real = polyring.groebner

    def spy(gens, *args):
        gens = list(gens)
        calls.append(gens)
        return real(gens, *args)

    monkeypatch.setattr(polyring, "groebner", spy)
    monkeypatch.setattr(algebra, "groebner", spy)
    assert len(tensor_product(tensor_product(a, b), a).gb()) == 3
    assert len(polynomial_extension(b).algebra.gb()) == 1
    assert not any(g for gens in calls for g in gens if not g.is_zero)


def test_tensor_morphism_is_functorial():
    """(f ⊗ g)∘(f′ ⊗ g′) = (f∘f′) ⊗ (g∘g′), and id ⊗ id = id."""
    circle = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])
    line = A_of(QQ, ["s"], [])
    f1 = AlgebraMorphism(CUBIC, IDEMP, ["2*t - 1"])
    f0 = AlgebraMorphism(CUBIC, CUBIC, ["-x"])
    g1 = AlgebraMorphism(circle, field_algebra(QQ), ["1", "0"])
    g0 = AlgebraMorphism(circle, circle, ["y", "x"])
    assert (tensor_morphism(f1, g1).compose(tensor_morphism(f0, g0))
            == tensor_morphism(f1.compose(f0), g1.compose(g0)))
    for a, b in ((CUBIC, circle), (IDEMP, field_algebra(QQ)),
                 (field_algebra(QQ), line)):
        ident = tensor_morphism(AlgebraMorphism.identity(a),
                                AlgebraMorphism.identity(b))
        assert ident == AlgebraMorphism.identity(tensor_product(a, b))


def test_tensor_morphism_checks_its_factors():
    f = AlgebraMorphism(IDEMP, CUBIC, ["x"], check=False)   # x^2 - x != 0
    with pytest.raises(MorphismError):
        tensor_morphism(f, AlgebraMorphism.identity(IDEMP))


# ---------------------------------------------------------------------------
# polynomial extension


def test_polynomial_extension_evaluations():
    a = A_of(QQ, ["u"], [])
    ext = polynomial_extension(a)
    axb = ext.algebra
    p = axb.parse("u + 3*x")
    assert ext.p0.apply_poly(p) == a.parse("u")
    assert ext.p1.apply_poly(p) == a.parse("u + 3")


def test_polynomial_extension_picks_a_fresh_variable_name():
    assert polynomial_extension(A_of(QQ, ["x"], [])).x_name == "x_0"
    ext = polynomial_extension(A_of(QQ, ["x", "x_0"], []))
    assert ext.x_name == "x_1" and ext.algebra.vars == ("x", "x_0", "x_1")


def test_polynomial_extension_flip_involution():
    a = A_of(QQ, ["u"], ["u^2 - u"])
    ext = polynomial_extension(a)
    assert ext.flip.apply_poly(ext.x_poly()) == ext.algebra.parse("1 - x")
    assert ext.flip.compose(ext.flip) == AlgebraMorphism.identity(ext.algebra)


def test_extension_then_p0_fixes_generators():
    a = A_of(QQ, ["u"], ["u^2 - u"])
    ext = polynomial_extension(a)
    assert ext.p0.compose(ext.embed) == AlgebraMorphism.identity(a)
    assert ext.p1.compose(ext.embed) == AlgebraMorphism.identity(a)


def test_extension_fresh_name_avoids_clash():
    a = A_of(QQ, ["x"], [])
    ext = polynomial_extension(a)
    assert ext.x_name != "x"
    assert ext.algebra.vars[-1] == ext.x_name


# ---------------------------------------------------------------------------
# standard monomials and enumeration


def test_standard_monomials_examples():
    assert len(CUBIC.standard_monomials(5)) == 3
    two_pts = A_of(QQ, ["x", "y"], ["x*y", "x+y-1"])
    assert len(two_pts.standard_monomials(6)) == 2
    free = A_of(QQ, ["x"], [])
    assert free.standard_monomials(2) == [(0,), (1,), (2,)]


def test_dimension_is_exact_beyond_any_probe_degree():
    assert A_of(QQ, ["x"], ["x^40 - 1"]).dimension() == 40
    assert A_of(QQ, ["x"], ["x^40 - 1"]).finite_basis() == [
        (i,) for i in range(40)]
    assert A_of(QQ, list("abcde"), ["a*b - c*d - e"]).dimension() is None
    assert A_of(QQ, ["x", "y"], ["x^2", "y^3", "x*y"]).dimension() == 4
    assert A_of(QQ, ["x"], ["x", "x - 1"]).dimension() == 0
    assert field_algebra(GF(5)).dimension() == 1


def test_enumerate_points_examples():
    a = A_of(GF(2), ["t"], ["t^2 - t"])
    pts = enumerate_points(a)
    assert [p.images[0].constant_term() for p in pts] == [0, 1]
    b = A_of(GF(3), ["t"], ["t^2 + 1"])
    assert enumerate_points(b) == []
    c = A_of(GF(2), ["x", "y"], ["x*y", "x+y-1"])
    assert len(enumerate_points(c)) == 2


def test_enumerate_points_rejects_rationals():
    with pytest.raises(UnsupportedFieldError):
        enumerate_points(IDEMP)


def test_zero_algebra_flag_and_no_points():
    z = A_of(GF(2), ["t"], ["t", "t - 1"])
    assert z.is_zero_algebra()
    assert enumerate_points(z) == []


def test_enumerate_hom_examples():
    a = A_of(GF(2), ["t"], ["t^2 - t"])
    assert len(enumerate_hom(a, field_algebra(GF(2)), 0)) == 2
    a3 = A_of(GF(3), ["t"], ["t^2 - 1"])
    b3 = A_of(GF(3), ["x"], ["x^2 - 1"])
    homs = enumerate_hom(a3, b3, 1)
    assert len(homs) == 4
    images = sorted(im.to_string(b3.vars) for h in homs for im in h.images)
    assert images == ["1", "2", "2*x", "x"]
    free = A_of(GF(2), ["t"], [])
    freeb = A_of(GF(2), ["x"], [])
    assert len(enumerate_hom(free, freeb, 1)) == 4


def test_enumerate_hom_monotone_in_degree():
    a3 = A_of(GF(3), ["t"], ["t^2 - 1"])
    b3 = A_of(GF(3), ["x"], ["x^2 - 1"])
    n0 = len(enumerate_hom(a3, b3, 0))
    n1 = len(enumerate_hom(a3, b3, 1))
    n2 = len(enumerate_hom(a3, b3, 2))
    assert n0 <= n1 <= n2


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip(tmp_path):
    doc = IDEMP.to_json()
    assert AlgebraPresentation.from_json(doc) == IDEMP
    path = tmp_path / "A.json"
    path.write_text('{"field": "Q", "vars": ["t"], "relations": ["t^2 - t"]}')
    assert load_algebra(str(path)) == IDEMP
    mdoc = {"source": "A.json", "target": {"field": "Q", "vars": []},
            "images": ["1"]}
    mpath = tmp_path / "f.json"
    import json
    mpath.write_text(json.dumps(mdoc))
    f = load_morphism(str(mpath))
    assert f.source == IDEMP


def test_element_arithmetic_normal_forms():
    e = CUBIC.element("x^3")
    assert e == CUBIC.element("x")
    sq = CUBIC.element("x^2")
    assert (sq * sq) == sq
    with pytest.raises(RingMismatchError):
        CUBIC.element("x") + IDEMP.element("t")


def test_apply_refuses_an_element_of_another_algebra():
    """Q[x]/(x² − 1) → Q, x ↦ 1 applied to x ∈ Q[x]/(x²): the same arity
    and field, but not the source."""
    source = A_of(QQ, ["x"], ["x^2 - 1"])
    f = AlgebraMorphism(source, field_algebra(QQ), ["1"])
    assert f.apply(source.element("x")) == field_algebra(QQ).element("1")
    with pytest.raises(RingMismatchError):
        f.apply(A_of(QQ, ["x"], ["x^2"]).element("x"))


def test_compose_with_zero_images_point():
    a = A_of(QQ, ["s"], ["s^2 - s"])
    b = A_of(QQ, ["t"], ["t^2 - t"])
    f = AlgebraMorphism(a, b, ["t"])
    point = AlgebraMorphism(b, field_algebra(QQ), ["0"])
    comp = point.compose(f)
    assert comp.images[0].is_zero


def test_enumerate_points_of_a_zero_algebra_beyond_the_guard():
    # 7^8 candidates exceed the search guard, but the solver sees the
    # constant relation first
    big_zero = A_of(GF(7), list("abcdefgh"), ["1"])
    assert enumerate_points(big_zero) == []


# ---------------------------------------------------------------------------
# identity by value


def test_identity_and_the_routes_never_print(monkeypatch):
    """Presentations compare by field, variables and relations as values:
    no equality or hash inside the routes renders a polynomial as text."""
    from affpi0.derham import derham_h0
    from affpi0.mapspace import coassociativity_check
    from affpi0.pi0 import equalizer_subspace, pi0_presentation
    from affpi0.simplicial import sing_h0

    def printer(self, names):
        raise AssertionError("printer reached")

    monkeypatch.setattr(Polynomial, "to_string", printer)
    twin = A_of(QQ, ["t"], ["t^2 - t"])
    assert twin == IDEMP and hash(twin) == hash(IDEMP)
    x = CUBIC.element("x")
    assert (x * x - x + x) ** 2 == CUBIC.element("x^2")
    circle = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])
    assert equalizer_subspace(circle, 2, 2).dimension == 1
    assert derham_h0(circle, 2).dimension == 1
    assert pi0_presentation(CUBIC, 2).component_count == 3
    assert [lvl.dimension for lvl in sing_h0(IDEMP, 1, 2).levels] == [2]
    assert coassociativity_check(IDEMP, IDEMP, IDEMP, IDEMP, 1)["ok"]


def test_loaded_presentation_equals_the_one_built_in_code(tmp_path):
    b = A_of(GF(5), ["u", "v"], ["u*v - 1", "u^2 + 2*v"])
    path = tmp_path / "bx.json"
    path.write_text('{"field": {"p": 5}, "vars": ["u", "v"], '
                    '"relations": ["u*v - 1", "u^2 + 2*v"]}')
    loaded = load_algebra(str(path))
    assert loaded == b and hash(loaded) == hash(b)
    path.write_text('{"field": {"p": 5}, "vars": ["u", "v", "x"], '
                    '"relations": ["u*v - 1", "u^2 + 2*v"]}')
    extension = polynomial_extension(b).algebra
    loaded = load_algebra(str(path))
    assert extension == loaded and loaded == extension
    assert hash(extension) == hash(loaded)


def test_presentations_with_other_data_differ():
    rels = ["u*v - 1", "u^2 + 2*v"]
    b = A_of(GF(5), ["u", "v"], rels)
    assert b != A_of(GF(5), ["u", "v"], rels[::-1])
    assert b != A_of(GF(7), ["u", "v"], rels)
    assert b != A_of(QQ, ["u", "v"], rels)
    assert b != A_of(GF(5), ["v", "u"], rels)
