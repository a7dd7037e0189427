"""Tests for truncated morphism-space presentations and their laws."""

from __future__ import annotations

import pytest

from affpi0 import mapspace, polyring
from affpi0.algebra import (AlgebraMorphism, AlgebraPresentation,
                            enumerate_hom, enumerate_points, field_algebra,
                            polynomial_extension, tensor_product)
from affpi0.errors import (PropertyViolationError, RingMismatchError,
                           TruncationError)
from affpi0.mapspace import (_renaming_correspondence, associated_morphism,
                             coassociativity_check, comultiplication,
                             functor_action, mapspace_presentation,
                             morphism_from_point, point_from_morphism,
                             points_crosscheck, structural_morphism,
                             verify_directsum_law, verify_exponential_law,
                             verify_tensor_law)
from affpi0.polyring import GF, QQ, BlockOrder, Polynomial, normal_form
from harnesses import reference_s_polynomial


def A_of(field, names, rels):
    return AlgebraPresentation(field, names, rels)


# ---------------------------------------------------------------------------
# presentation construction


def test_free_source_gives_free_level_algebra():
    a = A_of(QQ, ["t"], [])
    b = A_of(QQ, ["x"], [])
    m = mapspace_presentation(a, b, 1)
    assert m.algebra.relations == ()
    assert len(m.z_names) == 2


def test_point_target_recovers_source_relations():
    a = A_of(QQ, ["t"], ["t^2 - t"])
    m = mapspace_presentation(a, field_algebra(QQ), 0)
    assert len(m.algebra.vars) == 1
    z = m.algebra.vars
    assert [g.to_string(z) for g in m.algebra.relations] == [f"{z[0]}^2 - {z[0]}"]


def test_circle_to_circle_level_one_ideal():
    a = A_of(QQ, ["t"], ["t^2 - 1"])
    b = A_of(QQ, ["x"], ["x^2 - 1"])
    m = mapspace_presentation(a, b, 1)
    z = m.algebra.vars
    rels = sorted(g.to_string(z) for g in m.algebra.relations)
    # J = (z0^2 + z1^2 - 1, 2 z0 z1) with z0 the coefficient of 1, z1 of x
    assert rels == sorted([f"{z[0]}^2 + {z[1]}^2 - 1", f"2*{z[0]}*{z[1]}"])


def test_trivial_source_field_gives_trivial_level():
    b = A_of(QQ, ["x"], ["x^2 - 1"])
    m = mapspace_presentation(field_algebra(QQ), b, 1)
    assert m.algebra.vars == ()
    assert not m.algebra.is_zero_algebra()


def test_truncation_must_use_standard_monomials():
    a = A_of(QQ, ["t"], [])
    b = A_of(QQ, ["x"], ["x^2 - 1"])
    with pytest.raises(TruncationError):
        mapspace_presentation(a, b, [(0,), (2,)])
    # the check does not depend on the source having generators
    with pytest.raises(TruncationError):
        mapspace_presentation(field_algebra(QQ), b, [(2,)])


# ---------------------------------------------------------------------------
# the universal substitution


def test_upsilon_on_generator_and_unit():
    a = A_of(QQ, ["t"], ["t^2 - 1"])
    b = A_of(QQ, ["x"], ["x^2 - 1"])
    m = mapspace_presentation(a, b, 1)
    up = m.upsilon(a.element("t"))
    z = m.algebra.vars
    assert {v: c.to_string(z) for v, c in up.items()} == {
        (0,): z[0], (1,): z[1]}
    assert m.upsilon(a.one_element()) == {(0,): Polynomial.one(2, QQ)}
    # t^2 = 1 in A, so its image collapses to 1 ⊗ 1
    up2 = m.upsilon(a.element("t^2"))
    assert up2 == {(0,): Polynomial.one(2, QQ)}


def test_upsilon_is_multiplicative_modulo_relations():
    a = A_of(QQ, ["t"], ["t^3 - t"])
    b = A_of(QQ, ["x"], ["x^2 - x"])
    m = mapspace_presentation(a, b, 1)
    up_t = m.upsilon_poly(a.parse("t"))
    up_t2 = m.upsilon_poly(a.parse("t^2"))
    # multiply the level-one expansion of t by itself inside B ⊗ M
    prod: dict = {}
    for v1, c1 in up_t.items():
        for v2, c2 in up_t2.items():
            key = tuple(x + y for x, y in zip(v1, v2))
            prod[key] = prod.get(key, Polynomial.zero(m.n_z, QQ)) + c1 * c2
    # reduce the B-part (x^2 -> x) and the z-part mod J, then compare with t^3
    flat: dict = {}
    for v, c in prod.items():
        vv = (1,) if v[0] >= 1 else (0,)
        flat[vv] = flat.get(vv, Polynomial.zero(m.n_z, QQ)) + c
    reduced = {v: m.algebra.nf(c) for v, c in flat.items()}
    reduced = {v: c for v, c in reduced.items() if not c.is_zero}
    assert reduced == m.upsilon_poly(a.parse("t^3"))


def test_upsilon_poly_rejects_a_polynomial_of_another_ring():
    a = A_of(QQ, ["t"], ["t^3 - t"])
    m = mapspace_presentation(a, A_of(QQ, ["x"], ["x^2 - x"]), 1)
    m.upsilon_poly(a.parse("t"))        # the universal ring is built
    for p in (Polynomial.variable(0, 1, GF(5)), Polynomial.variable(0, 2, QQ),
              Polynomial.variable(0, m.universal_ring.arity, QQ)):
        with pytest.raises(RingMismatchError):
            m.upsilon_poly(p)


@pytest.mark.parametrize("names, target", [(["x"], ["x^2 - x"]),
                                           (["x", "y"], ["x^2 + y^2 - 1"])])
def test_lifted_bases_are_groebner_bases_of_the_big_ring(names, target):
    """B's basis and J's live in disjoint variable blocks, so every
    S-polynomial of the relation ring's and the universal ring's bases
    reduces to zero."""
    a = A_of(QQ, ["t"], ["t^3 - t"])
    m = mapspace_presentation(a, A_of(QQ, names, target), 1)
    small = tensor_product(m.b, AlgebraPresentation(QQ, m.z_names)).gb()
    big = m.universal_ring.gb()
    assert len(big) > len(small) > 0
    for basis in (small, big):
        assert basis.order == BlockOrder(m.n_b)
        polys = basis.polys
        lms = tuple(g.leading_monomial(basis.order) for g in polys)
        assert basis.leading_monomials == lms
        for i in range(len(polys)):
            for j in range(i):
                s = reference_s_polynomial(polys[i], lms[i], polys[j],
                                           lms[j])
                assert normal_form(s, basis).is_zero


# ---------------------------------------------------------------------------
# structural morphisms


def test_structural_morphism_identity_level():
    a = A_of(QQ, ["t"], ["t^2 - t"])
    b = A_of(QQ, ["x"], [])
    m = mapspace_presentation(a, b, 1)
    phi = structural_morphism(m, m)
    assert phi == AlgebraMorphism.identity(m.algebra)


def test_structural_morphism_kills_new_coordinates():
    a = A_of(QQ, ["t"], [])
    b = A_of(QQ, ["x"], [])
    m1 = mapspace_presentation(a, b, 1)
    m2 = mapspace_presentation(a, b, 2)
    phi = structural_morphism(m1, m2)
    strings = [im.to_string(m1.algebra.vars) for im in phi.images]
    assert strings[:2] == list(m1.algebra.vars) and strings[2] == "0"


def test_structural_morphisms_compose_along_tower():
    a = A_of(QQ, ["t"], ["t^2 - 1"])
    b = A_of(QQ, ["x"], ["x^2 - 1"])
    levels = [mapspace_presentation(a, b, d) for d in range(4)]
    for d0 in range(3):
        for d1 in range(d0, 4):
            for d2 in range(d1, 4):
                one_hop = structural_morphism(levels[d0], levels[d2])
                two_hop = structural_morphism(levels[d0], levels[d1]).compose(
                    structural_morphism(levels[d1], levels[d2]))
                assert one_hop == two_hop


# ---------------------------------------------------------------------------
# associated morphisms and points


def test_associated_morphism_of_upsilon_like_point():
    a = A_of(GF(3), ["t"], ["t^2 - 1"])
    b = A_of(GF(3), ["x"], ["x^2 - 1"])
    m = mapspace_presentation(a, b, 1)
    phi = AlgebraMorphism(a, b, ["x"])
    pt = point_from_morphism(m, phi)
    # the point kills J and sends z0 -> 0, z1 -> 1
    assert [im.constant_term() for im in pt.images] == [0, 1]
    assert morphism_from_point(m, pt) == phi


def test_associated_morphism_factorization_through_tensor():
    a = A_of(QQ, ["t"], ["t^2 - t"])
    b = A_of(QQ, ["x"], ["x^2 - x"])
    c = A_of(QQ, ["u"], ["u^2 - u"])
    t = tensor_product(b, c)
    phi = AlgebraMorphism(a, t, ["x_1*u_2"])
    m = mapspace_presentation(a, b, 1)
    psi = associated_morphism(m, phi)
    # z[t,1] -> 0, z[t,x] -> u
    assert psi.images[0].is_zero
    assert psi.images[1] == c.parse("u")


def test_associated_morphism_truncation_too_small():
    a = A_of(QQ, ["t"], [])
    b = A_of(QQ, ["x"], [])
    c = field_algebra(QQ)
    t = tensor_product(b, c)
    phi = AlgebraMorphism(a, t, ["x_1^2"])
    m = mapspace_presentation(a, b, 1)
    with pytest.raises(TruncationError):
        associated_morphism(m, phi)


def test_associated_morphism_rejects_a_polynomial_extension():
    """B[x] lists B's variables and then x, as B ⊗ F[x] does, but keeps B's
    names: it is no tensor presentation, and φ into it is a request error."""
    a = A_of(QQ, ["t"], ["t^2 - t"])
    b = A_of(QQ, ["x"], ["x^2 - x"])
    ext = polynomial_extension(b)
    phi = ext.embed.compose(AlgebraMorphism(a, b, ["x"]))
    with pytest.raises(RingMismatchError):
        associated_morphism(mapspace_presentation(a, b, 1), phi)


def test_associated_morphism_with_a_wrong_level_map_fails(monkeypatch):
    """ψ sending its last coordinate to 0 is still a morphism here, but
    (id ⊗ ψ) ∘ υ no longer gives φ."""
    a = A_of(QQ, ["t"], ["t^2 - t"])
    b = A_of(QQ, ["x"], ["x^2 - x"])
    c = A_of(QQ, ["u"], ["u^2 - u"])
    phi = AlgebraMorphism(a, tensor_product(b, c), ["x_1*u_2"])
    level = mapspace._level_morphism

    def planted(m, target, coeffs):
        psi = level(m, target, coeffs)
        return AlgebraMorphism(psi.source, psi.target, psi.images[:-1]
                               + (Polynomial.zero(target.arity, QQ),))

    monkeypatch.setattr(mapspace, "_level_morphism", planted)
    with pytest.raises(PropertyViolationError):
        associated_morphism(mapspace_presentation(a, b, 1), phi)


def test_points_crosscheck_examples():
    rep = points_crosscheck(A_of(GF(3), ["t"], ["t^2 - 1"]),
                            A_of(GF(3), ["x"], ["x^2 - 1"]), 1)
    assert rep["hom_count"] == rep["point_count"] == 4
    rep2 = points_crosscheck(A_of(GF(2), ["t"], ["t^2 - t"]),
                             field_algebra(GF(2)), 0)
    assert rep2["hom_count"] == rep2["point_count"] == 2
    rep3 = points_crosscheck(A_of(GF(2), ["t"], []), A_of(GF(2), ["x"], []), 1)
    assert rep3["hom_count"] == rep3["point_count"] == 4


def test_universal_factorization_for_enumerated_morphisms():
    a = A_of(GF(3), ["t"], ["t^2 - 1"])
    b = A_of(GF(3), ["x"], ["x^2 - 1"])
    m = mapspace_presentation(a, b, 1)
    for phi in enumerate_hom(a, b, 1):
        pt = point_from_morphism(m, phi)
        # (id_B ⊗ point) ∘ upsilon recovers phi on the generator
        up = m.upsilon_poly(a.parse("t"))
        img = Polynomial.zero(b.arity, b.field)
        for v, coeff in up.items():
            img = img + Polynomial.monomial(v, b.field,
                                            pt.apply_poly(coeff).constant_term())
        assert b.nf(img) == phi.images[0]


# ---------------------------------------------------------------------------
# functor action


def test_functor_action_identity_pair():
    a = A_of(QQ, ["t"], ["t^2 - t"])
    b = A_of(QQ, ["x"], ["x^2 - x"])
    m = mapspace_presentation(a, b, 1)
    act = functor_action(AlgebraMorphism.identity(a),
                         AlgebraMorphism.identity(b), m, m)
    assert act == AlgebraMorphism.identity(m.algebra)


def test_functor_action_reduces_each_image_once(monkeypatch):
    a = A_of(QQ, ["t"], ["t^2 - t"])
    b = A_of(QQ, ["x"], ["x^2 - x"])
    m = mapspace_presentation(a, b, 1)
    target = m.algebra
    records = target.gb()._reducers()
    calls = []
    divide = polyring._divide

    def spy(work, scale, reducers, *rest):
        if reducers is records:
            calls.append(work)
        return divide(work, scale, reducers, *rest)

    monkeypatch.setattr(polyring, "_divide", spy)
    functor_action(AlgebraMorphism.identity(a), AlgebraMorphism.identity(b),
                   m, m)
    # one reduction by the target's basis per image and one per checked
    # relation, all in the morphism's constructor: `target.nf` reduces each
    # image and `apply_poly` each relation by one pass of the reduction
    # loop; every coefficient lies on its delta
    assert len(calls) == m.n_z + len(target.relations)


def test_functor_action_contravariant_in_target():
    a = A_of(QQ, ["t"], [])
    bx = A_of(QQ, ["x"], [])
    f0 = field_algebra(QQ)
    g = AlgebraMorphism(f0, bx, [])  # unit inclusion F -> F[x]
    m_src = mapspace_presentation(a, bx, 1)
    m_tgt = mapspace_presentation(a, f0, 0)
    act = functor_action(AlgebraMorphism.identity(a), g, m_src, m_tgt)
    # M(A, F[x]) -> M(A, F) ≅ A-side map: z[t,1] -> z, z[t,x] -> 0
    assert act.images[0] == m_tgt.algebra.parse(m_tgt.algebra.vars[0])
    assert act.images[1].is_zero


def test_functor_action_composition_law():
    f2 = GF(2)
    a = A_of(f2, ["t"], ["t^2 - t"])
    a2 = A_of(f2, ["s"], ["s^2 - s"])
    b = A_of(f2, ["x"], ["x^2 - x"])
    b2 = A_of(f2, ["y"], ["y^2 - y"])
    f = AlgebraMorphism(a, a2, ["s"])
    f2m = AlgebraMorphism(a2, a2, ["s^2"])
    g = AlgebraMorphism(b2, b, ["x"])
    g2 = AlgebraMorphism(b2, b2, ["y"])
    m_ab = mapspace_presentation(a, b, 1)
    m_a2b2 = mapspace_presentation(a2, b2, 1)
    direct = functor_action(f2m.compose(f), g.compose(g2), m_ab, m_a2b2)
    staged = functor_action(f2m, g2, m_a2b2, m_a2b2).compose(
        functor_action(f, g, m_ab, m_a2b2))
    assert direct == staged


# ---------------------------------------------------------------------------
# comultiplication


def test_comultiplication_full_basis_idempotent_triple():
    a = A_of(QQ, ["t"], ["t^2 - t"])
    m_ab = mapspace_presentation(a, a, 1)
    m_bc = mapspace_presentation(a, a, 1)
    m_ac = mapspace_presentation(a, a, 1)
    phi, t = comultiplication(m_ac, m_bc, m_ab)
    names = t.vars
    z0, z1 = phi.images
    # z0 -> 1 ⊗ z0 + w0 ⊗ z1, z1 -> w1 ⊗ z1 (w = coordinates of M(B,C))
    w = m_bc.algebra.vars
    zz = m_ab.algebra.vars
    assert z0.to_string(names) in (f"{w[0]}_1*{zz[1]}_2 + {zz[0]}_2",
                                   f"{zz[0]}_2 + {w[0]}_1*{zz[1]}_2")
    assert z1.to_string(names) == f"{w[1]}_1*{zz[1]}_2"


def test_comultiplication_trivial_middle():
    a = A_of(QQ, ["t"], ["t^2 - t"])
    f0 = field_algebra(QQ)
    m_ac = mapspace_presentation(a, a, 1)
    m_bc = mapspace_presentation(f0, a, 1)
    m_ab = mapspace_presentation(a, f0, 0)
    phi, t = comultiplication(m_ac, m_bc, m_ab)
    # M(F,C) is trivial, so the image lands in the M(A,F) ≅ A side
    assert phi.images[0].to_string(t.vars) == t.vars[-1]
    assert phi.images[1].is_zero


def test_coassociativity_on_desk_quadruple():
    a = A_of(QQ, ["t"], ["t^2 - t"])
    rep = coassociativity_check(a, a, a, a, 1)
    assert rep["ok"]


def test_coassociativity_with_a_wrong_comultiplication_fails(monkeypatch):
    """Φ_ACD with its last image set to 0 is still a morphism, but the two
    bracketings then differ."""
    a = A_of(QQ, ["t"], ["t^2 - t"])
    comult = mapspace.comultiplication
    calls = []

    def planted(m_ac, m_bc, m_ab):
        phi, t = comult(m_ac, m_bc, m_ab)
        calls.append(phi)
        if len(calls) == 1:
            phi = AlgebraMorphism(phi.source, t, phi.images[:-1]
                                  + (Polynomial.zero(t.arity, QQ),))
        return phi, t

    monkeypatch.setattr(mapspace, "comultiplication", planted)
    with pytest.raises(PropertyViolationError):
        coassociativity_check(a, a, a, a, 1)


def test_comultiplication_point_composition_compatibility():
    f3 = GF(3)
    a = A_of(f3, ["t"], ["t^2 - 1"])
    m_ab = mapspace_presentation(a, a, 1)
    m_bc = mapspace_presentation(a, a, 1)
    m_ac = mapspace_presentation(a, a, 1)
    phi, t = comultiplication(m_ac, m_bc, m_ab)
    for g in enumerate_hom(a, a, 1):
        for f in enumerate_hom(a, a, 1):
            pt_g = point_from_morphism(m_bc, g)
            pt_f = point_from_morphism(m_ab, f)
            pt_gf = point_from_morphism(m_ac, g.compose(f))
            for k in range(m_ac.n_z):
                img = phi.images[k]
                # evaluate the two tensor legs at the equal points
                val = f3.zero()
                for mono, c in img.terms.items():
                    left = mono[:m_bc.n_z]
                    right = mono[m_bc.n_z:]
                    lval = Polynomial.monomial(left, f3).evaluate(
                        [im.constant_term() for im in pt_g.images])
                    rval = Polynomial.monomial(right, f3).evaluate(
                        [im.constant_term() for im in pt_f.images])
                    val = f3.add(val, f3.mul(c, f3.mul(lval, rval)))
                assert val == pt_gf.images[k].constant_term()


# ---------------------------------------------------------------------------
# natural isomorphism laws


def test_exponential_law_desk_example():
    a = A_of(QQ, ["t"], ["t^2"])
    b = A_of(QQ, ["e1"], ["e1^2"])
    b2 = A_of(QQ, ["e2"], ["e2^2"])
    rep = verify_exponential_law(a, b, b2, 1, 1)
    assert rep["ok"] and rep["left_coords"] == rep["right_coords"] == 4


def test_tensor_law_desk_example():
    f2 = GF(2)
    a = A_of(f2, ["t"], ["t^2 - t"])
    a2 = A_of(f2, ["s"], ["s^2 - s"])
    b = field_algebra(f2)
    rep = verify_tensor_law(a, a2, b, 0)
    assert rep["ok"]


def test_directsum_law_desk_example():
    a = A_of(QQ, ["t"], ["t^2 - 1"])
    rep = verify_directsum_law(a, field_algebra(QQ), field_algebra(QQ))
    assert rep["ok"]


def test_directsum_law_with_a_wrong_backward_map_fails(monkeypatch):
    """Negating z in the backward map's first factor keeps z^2 - 1 fixed,
    so the map is still a morphism, but no longer inverse to the forward
    one."""
    a = A_of(QQ, ["t"], ["t^2 - 1"])
    action = mapspace.functor_action
    calls = []

    def planted(f, g, m_source, m_target):
        act = action(f, g, m_source, m_target)
        calls.append(act)
        if len(calls) == 1:
            act = AlgebraMorphism(act.source, act.target,
                                  act.images[:-1] + (-act.images[-1],))
        return act

    monkeypatch.setattr(mapspace, "functor_action", planted)
    with pytest.raises(PropertyViolationError):
        verify_directsum_law(a, field_algebra(QQ), field_algebra(QQ))


def test_renaming_that_is_no_bijection_is_a_property_failure():
    # a, b both go to c: no relation fails, the round trip does
    left = A_of(QQ, ["a", "b"], [])
    right = A_of(QQ, ["c", "d"], [])
    with pytest.raises(PropertyViolationError) as caught:
        _renaming_correspondence(left, right, [0, 0])
    assert ("roundtrip", "a") in caught.value.witness


def test_directsum_law_point_counts_over_f3():
    f3 = GF(3)
    a = A_of(f3, ["t"], ["t^2 - 1"])
    b = field_algebra(f3)
    rep = verify_directsum_law(a, b, b)
    assert rep["ok"]
    from affpi0.algebra import direct_sum
    ds, _, _ = direct_sum(b, b)
    m_ds = mapspace_presentation(a, ds, 1)
    m1 = mapspace_presentation(a, b, 0)
    n_ds = len(enumerate_points(m_ds.algebra))
    n1 = len(enumerate_points(m1.algebra))
    assert n_ds == n1 * n1 == 4


def test_trivial_map_space_from_field_source():
    # M(F, B) for the unital case is the ground field at every level
    b = A_of(QQ, ["x"], ["x^3 - x"])
    for d in range(3):
        m = mapspace_presentation(field_algebra(QQ), b, d)
        assert m.algebra.vars == () and not m.algebra.is_zero_algebra()


def test_point_counts_stable_once_degree_covers_images():
    f3 = GF(3)
    a = A_of(f3, ["t"], ["t^2 - 1"])
    b = A_of(f3, ["x"], ["x^2 - 1"])
    counts = [points_crosscheck(a, b, d)["hom_count"] for d in (1, 2, 3)]
    assert counts == [4, 4, 4]


def test_point_from_morphism_rejects_out_of_delta_support():
    f2 = GF(2)
    a = A_of(f2, ["t"], [])
    b = A_of(f2, ["x"], [])
    m = mapspace_presentation(a, b, 1)
    phi = AlgebraMorphism(a, b, ["x^2"])
    with pytest.raises(TruncationError):
        point_from_morphism(m, phi)


def test_exponential_law_asymmetric_levels():
    a = A_of(QQ, ["t"], ["t^2"])
    b = A_of(QQ, ["e1"], ["e1^2"])
    b2 = A_of(QQ, ["m"], ["m^3"])
    rep = verify_exponential_law(a, b, b2, 1, 2)
    assert rep["ok"] and rep["left_coords"] == rep["right_coords"] == 6


def test_directsum_law_nontrivial_summands():
    a = A_of(QQ, ["t"], ["t^2 - t"])
    b = A_of(QQ, ["e"], ["e^2 - e"])
    rep = verify_directsum_law(a, b, field_algebra(QQ))
    assert rep["ok"]
    assert rep["dim_b"] == 2 and rep["dim_b2"] == 1


def test_associated_morphism_of_upsilon_itself_is_identity():
    a = A_of(QQ, ["t"], ["t^2 - 1"])
    b = A_of(QQ, ["x"], ["x^2 - 1"])
    m = mapspace_presentation(a, b, 1)
    t = tensor_product(b, m.algebra)
    # phi = upsilon as an honest morphism A -> B ⊗ M
    images = []
    for gi in range(a.arity):
        acc = Polynomial.zero(t.arity, QQ)
        for v, coeff in m.upsilon_poly(Polynomial.variable(gi, 1, QQ)).items():
            acc = acc + t.embed_a(Polynomial.monomial(v, QQ)) * t.embed_b(coeff)
        images.append(acc)
    phi = AlgebraMorphism(a, t, images)
    psi = associated_morphism(m, phi)
    assert psi == AlgebraMorphism.identity(m.algebra)


def test_points_crosscheck_polynomial_target():
    """Level points match the truncated Hom set for an infinite-dimensional
    target: idempotent images in F2[x] are the constants 0 and 1."""
    f2 = GF(2)
    a = A_of(f2, ["t"], ["t^2 - t"])
    b = A_of(f2, ["x"], [])
    for d in (1, 2, 3):
        rep = points_crosscheck(a, b, d)
        assert rep["hom_count"] == rep["point_count"] == 2


def test_functor_action_truncation_too_small():
    a = A_of(QQ, ["t"], [])
    a2 = A_of(QQ, ["s"], [])
    b = A_of(QQ, ["x"], [])
    f = AlgebraMorphism(a, a2, ["s^2"])
    m_src = mapspace_presentation(a, b, 1)
    m_tgt = mapspace_presentation(a2, b, 1)
    with pytest.raises(TruncationError):
        functor_action(f, AlgebraMorphism.identity(b), m_src, m_tgt)


def test_directsum_law_with_nilpotent_summand():
    a = A_of(QQ, ["t"], ["t^2 - t"])
    b = A_of(QQ, ["e"], ["e^2 - e"])
    b2 = A_of(QQ, ["n"], ["n^2"])
    rep = verify_directsum_law(a, b, b2)
    assert rep["ok"] and rep["dim_b"] == 2 and rep["dim_b2"] == 2


def test_exponential_law_over_prime_field():
    f2 = GF(2)
    a = A_of(f2, ["t"], ["t^2"])
    b = A_of(f2, ["e1"], ["e1^2"])
    b2 = A_of(f2, ["e2"], ["e2^2"])
    rep = verify_exponential_law(a, b, b2, 1, 1)
    assert rep["ok"]
