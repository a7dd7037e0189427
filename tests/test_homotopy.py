"""Tests for elementary homotopy verification, bounded search, and constancy."""

from __future__ import annotations

import pytest

from affpi0.algebra import (AlgebraMorphism, AlgebraPresentation,
                            field_algebra, polynomial_extension)
from affpi0.errors import HypothesisError, MorphismError
from affpi0.homotopy import (SearchBounds, chain_verify, constancy_check,
                             constant_homotopy, homotopy_search,
                             homotopy_verify)
from affpi0.polyring import GF, QQ

from harnesses import p0p1_invariance_harness


def A_of(field, names, rels):
    return AlgebraPresentation(field, names, rels)


FREE_T = A_of(QQ, ["t"], [])
FREE_U = A_of(QQ, ["u"], [])


def test_verify_linear_homotopy_on_free_source():
    f = AlgebraMorphism(FREE_T, FREE_U, ["0"])
    g = AlgebraMorphism(FREE_T, FREE_U, ["u"])
    ext = polynomial_extension(FREE_U)
    h = AlgebraMorphism(FREE_T, ext.algebra, ["u*x"])
    cert = homotopy_verify(f, g, h, ext)
    assert cert.f == f and cert.g == g


def test_verify_endpoint_mismatch_named():
    f = AlgebraMorphism(FREE_T, FREE_U, ["0"])
    g2 = AlgebraMorphism(FREE_T, FREE_U, ["2*u"])
    ext = polynomial_extension(FREE_U)
    h = AlgebraMorphism(FREE_T, ext.algebra, ["u*x"])
    with pytest.raises(MorphismError, match="x=1"):
        homotopy_verify(f, g2, h, ext)


def test_verify_builds_the_extension_of_fs_target_named_by_h():
    f = AlgebraMorphism(FREE_T, FREE_U, ["0"])
    g = AlgebraMorphism(FREE_T, FREE_U, ["u"])
    ext = polynomial_extension(FREE_U, "s")
    h = AlgebraMorphism(FREE_T, ext.algebra, ["u*s"])
    cert = homotopy_verify(f, g, h)
    assert cert.ext.x_name == "s" and cert.ext.algebra == ext.algebra
    other = AlgebraMorphism(FREE_T, A_of(QQ, ["u", "s"], ["s^2"]), ["u*s"])
    with pytest.raises(MorphismError, match="target\\[x\\]"):
        homotopy_verify(f, g, other)


def test_constant_homotopy_reflexivity():
    f = AlgebraMorphism(A_of(QQ, ["t"], ["t^2 - t"]), field_algebra(QQ), ["1"])
    cert = constant_homotopy(f)
    assert cert.f == cert.g == f


def test_search_free_source_found_at_degree_one():
    f = AlgebraMorphism(FREE_T, FREE_U, ["0"])
    g = AlgebraMorphism(FREE_T, FREE_U, ["u"])
    res = homotopy_search(f, g, SearchBounds(1, 1))
    assert res.status == "found"
    ext = res.certificate.ext
    assert res.certificate.h.images[0] == ext.algebra.parse("u*x")


def test_search_idempotent_endpoints_certified_none():
    a = A_of(QQ, ["t"], ["t^2 - t"])
    b = field_algebra(QQ)
    f = AlgebraMorphism(a, b, ["0"])
    g = AlgebraMorphism(a, b, ["1"])
    for bound in range(5):
        res = homotopy_search(f, g, SearchBounds(bound, bound))
        assert res.status == "none-within-bounds"


def test_search_equal_endpoints_finds_constant():
    a = A_of(QQ, ["t"], ["t^2 - t"])
    f = AlgebraMorphism(a, field_algebra(QQ), ["1"])
    res = homotopy_search(f, f, SearchBounds(2, 0))
    assert res.status == "found"


def test_search_symmetry_via_flip():
    f = AlgebraMorphism(FREE_T, FREE_U, ["0"])
    g = AlgebraMorphism(FREE_T, FREE_U, ["u"])
    fwd = homotopy_search(f, g, SearchBounds(1, 1))
    assert fwd.status == "found"
    back = fwd.certificate.reversed()
    assert back.f == g and back.g == f
    # and the search itself also succeeds in the reversed direction
    assert homotopy_search(g, f, SearchBounds(1, 1)).status == "found"


def test_search_over_prime_field_exhaustive():
    f2 = GF(2)
    a = A_of(f2, ["t"], ["t^2 - t"])
    b = field_algebra(f2)
    f = AlgebraMorphism(a, b, ["0"])
    g = AlgebraMorphism(a, b, ["1"])
    res = homotopy_search(f, g, SearchBounds(2, 0))
    assert res.status == "none-within-bounds"


def test_chain_verify_two_links_and_broken_chain():
    f = AlgebraMorphism(FREE_T, FREE_U, ["0"])
    mid = AlgebraMorphism(FREE_T, FREE_U, ["u"])
    top = AlgebraMorphism(FREE_T, FREE_U, ["2*u"])
    l1 = homotopy_search(f, mid, SearchBounds(1, 1)).certificate
    l2 = homotopy_search(mid, top, SearchBounds(1, 1)).certificate
    chain = chain_verify([l1, l2])
    assert chain.start == f and chain.end == top
    from affpi0.errors import PropertyViolationError
    with pytest.raises(PropertyViolationError):
        chain_verify([l1, homotopy_search(f, mid, SearchBounds(1, 1)).certificate])


def test_chain_singleton():
    f = AlgebraMorphism(FREE_T, FREE_U, ["u"])
    chain = chain_verify([constant_homotopy(f)])
    assert chain.start == chain.end == f


# ---------------------------------------------------------------------------
# constancy lemma


def test_constancy_idempotent_in_extension():
    c = A_of(QQ, ["e"], ["e^2 - e"])
    ext = polynomial_extension(c)
    p = ext.algebra.element("e")
    rep = constancy_check(p, ext, "power", k=2)
    assert rep.constant and rep.witness == c.element("e")


def test_constancy_char_divides_k_minus_one_rejected():
    # char 2 divides k-1 for k=3; the lemma hypothesis genuinely fails there
    # (over F2[u]/(u^2), p = u*x + 1 satisfies p^3 = p yet is not constant)
    c = A_of(GF(2), ["u"], ["u^2"])
    ext = polynomial_extension(c)
    p = ext.algebra.element("u*x + 1")
    assert (p ** 3) == p
    with pytest.raises(HypothesisError, match="divides"):
        constancy_check(p, ext, "power", k=3)


def test_constancy_k2_over_f2_is_legitimate():
    # char(F2) does not divide k-1 = 1, so k=2 is in scope over F2
    c = A_of(GF(2), ["e"], ["e^2 - e"])
    ext = polynomial_extension(c)
    rep = constancy_check(ext.algebra.element("e"), ext, "power", k=2)
    assert rep.constant


def test_constancy_power_hypothesis_not_satisfied():
    c = A_of(QQ, ["u"], [])
    ext = polynomial_extension(c)
    p = ext.algebra.element("x")
    with pytest.raises(HypothesisError, match="power hypothesis"):
        constancy_check(p, ext, "power", k=2)


def test_constancy_integral_mode():
    c = A_of(QQ, ["u"], ["u^2 - 1"])
    ext = polynomial_extension(c)
    p = ext.algebra.element("u")
    # u is a root of T^2 - 1: coefficients (-1, 0, 1)
    rep = constancy_check(p, ext, "integral", minpoly=[-1, 0, 1])
    assert rep.constant


def test_constancy_integral_detects_nonconstant_certificate():
    # without the no-nilpotents hypothesis the lemma can fail; the checker
    # must then return the offending x-coefficient, not claim constancy
    c = A_of(QQ, ["n"], ["n^2"])
    ext = polynomial_extension(c)
    p = ext.algebra.element("n*x")
    rep = constancy_check(p, ext, "integral", minpoly=[0, 0, 1])
    assert not rep.constant
    assert not rep.witness.is_zero


def test_found_homotopy_implies_p_restriction_equal():
    """A verified homotopy forces f = g on the computed path-component basis."""
    from affpi0.derham import derham_h0

    a = A_of(QQ, ["t"], ["t^3 - t"])
    b = A_of(QQ, ["u"], [])
    f = AlgebraMorphism(a, b, ["0"])
    # only homotopies with equal idempotent behavior exist; test with f itself
    cert = constant_homotopy(f)
    basis = derham_h0(a, 2).basis
    for elem in basis:
        assert cert.f.apply(elem) == cert.g.apply(elem)


def test_p0p1_invariance_harness_hooks():
    idem = A_of(QQ, ["e"], ["e^2 - e"])
    rep = p0p1_invariance_harness(idem, "pi0", degree=2, tower_depth=1)
    assert rep["ok"] and rep["spanning_size"] >= 1
    rep = p0p1_invariance_harness(field_algebra(QQ), "derham_h0", degree=2)
    assert rep["ok"]
    cubic = A_of(QQ, ["x"], ["x^3 - x"])
    rep = p0p1_invariance_harness(cubic, "derham_h0", degree=2)
    assert rep["ok"]
    rep = p0p1_invariance_harness(idem, "sing_h0", degree=2, tower_depth=1)
    assert rep["ok"]
    with pytest.raises(ValueError):
        p0p1_invariance_harness(idem, "nonsense")


def test_homotopic_morphisms_agree_on_path_component_basis():
    """A genuine non-constant homotopy forces equality on the computed basis."""
    from affpi0.derham import derham_h0

    a = A_of(QQ, ["e", "t"], ["e^2 - e"])
    b = A_of(QQ, ["u"], [])
    ext = polynomial_extension(b)
    f = AlgebraMorphism(a, b, ["1", "0"])
    g = AlgebraMorphism(a, b, ["1", "u"])
    h = AlgebraMorphism(a, ext.algebra, ["1", "u*x"])
    cert = homotopy_verify(f, g, h, ext)
    basis = derham_h0(a, 2).basis
    assert len(basis) == 2  # span{1, e}
    for elem in basis:
        assert cert.f.apply(elem) == cert.g.apply(elem)
    assert f != g


def test_search_equal_endpoints_shortcircuits_positive_dimensional_space():
    """f = g always has the constant certificate, even when the coefficient
    variety is positive-dimensional (dual numbers target)."""
    a = A_of(QQ, ["t"], ["t^2"])
    b = A_of(QQ, ["u"], ["u^2"])
    f = AlgebraMorphism(a, b, ["u"])
    res = homotopy_search(f, f, SearchBounds(2, 1))
    assert res.status == "found"
    assert res.certificate.f == res.certificate.g == f


@pytest.mark.parametrize("a, b", [
    (field_algebra(QQ), FREE_U),           # no generators to send anywhere
    (FREE_T, A_of(QQ, ["u"], ["1"])),      # the zero algebra has no slots
])
def test_search_without_unknowns_has_equal_endpoints(a, b):
    """With no generator or no slot, f and g must coincide, so the search
    returns the constant homotopy."""
    images = [["0"], ["1"]] if a.arity else [[], []]
    f, g = (AlgebraMorphism(a, b, im) for im in images)
    assert f == g
    res = homotopy_search(f, g, SearchBounds(1, 1))
    assert res.status == "found"


def test_search_over_prime_field_positive_case():
    f3 = GF(3)
    a = A_of(f3, ["t"], [])
    b = A_of(f3, ["u"], [])
    f = AlgebraMorphism(a, b, ["0"])
    g = AlgebraMorphism(a, b, ["u"])
    res = homotopy_search(f, g, SearchBounds(1, 1))
    assert res.status == "found"
    ext = res.certificate.ext
    assert ext.p0.compose(res.certificate.h) == f
    assert ext.p1.compose(res.certificate.h) == g


def test_search_underdetermined_linear_system_still_finds_certificate():
    """Dual numbers to dual numbers: the constraint system is linear with a
    free parameter; the search must still produce a certificate."""
    a = A_of(QQ, ["t"], ["t^2"])
    b = A_of(QQ, ["u"], ["u^2"])
    f = AlgebraMorphism(a, b, ["0"])
    g = AlgebraMorphism(a, b, ["u"])
    res = homotopy_search(f, g, SearchBounds(2, 1))
    assert res.status == "found"
    ext = res.certificate.ext
    assert ext.p0.compose(res.certificate.h) == f
    assert ext.p1.compose(res.certificate.h) == g


def test_search_is_a_point_search_on_the_map_space(monkeypatch):
    """The unknowns are the coordinates of one map space M(A, B[x]),
    truncated to the slots w·x^k in B-monomial-major order."""
    from affpi0 import homotopy
    from affpi0.mapspace import mapspace_presentation
    calls = []

    def spy(a, b, trunc):
        calls.append((a, b, trunc))
        return mapspace_presentation(a, b, trunc)

    monkeypatch.setattr(homotopy, "mapspace_presentation", spy)
    a = A_of(QQ, ["t"], ["t^2"])
    b = A_of(QQ, ["u"], ["u^2"])
    f = AlgebraMorphism(a, b, ["0"])
    g = AlgebraMorphism(a, b, ["u"])
    res = homotopy_search(f, g, SearchBounds(2, 1))
    assert res.status == "found"
    ext = polynomial_extension(b)
    slots = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert calls == [(a, ext.algebra, slots)]


def _brute_force_homotopy_exists(f, g, bounds):
    """Try every coefficient vector of H over the search slots."""
    import itertools
    from affpi0.polyring import Polynomial
    a, b = f.source, f.target
    ext = polynomial_extension(b)
    slots = [tuple(w) + (k,) for w in b.standard_monomials(bounds.bdeg)
             for k in range(bounds.xdeg + 1)]
    for coeffs in itertools.product(range(a.field.p),
                                    repeat=a.arity * len(slots)):
        images = [Polynomial.combination(
            ext.algebra.arity, a.field, slots,
            coeffs[gi * len(slots):(gi + 1) * len(slots)])
            for gi in range(a.arity)]
        try:
            h = AlgebraMorphism(a, ext.algebra, images)
        except MorphismError:
            continue
        if ext.p0.compose(h) == f and ext.p1.compose(h) == g:
            return True
    return False


@pytest.mark.parametrize("p, src, tgt, f_img, g_img, bounds", [
    (2, (["t"], ["t^2 - t"]), ([], []), "0", "1", (2, 0)),
    (2, (["t"], []), (["u"], ["u^2 - u"]), "0", "u", (1, 1)),
    (2, (["t"], ["t^2 - t"]), (["u"], ["u^2 - u"]), "0", "u", (1, 1)),
    (3, (["t"], ["t^2"]), (["u"], ["u^2"]), "0", "u", (1, 1)),
    (3, (["t"], ["t^2"]), (["u"], ["u^2"]), "u", "2*u", (0, 1)),
    (3, (["t"], ["t^2 - t"]), (["u"], ["u^2 - u"]), "u", "1 - u", (1, 1)),
    (3, (["t"], []), (["u"], ["u^3 - u"]), "1", "u^2", (1, 1)),
    (3, (["t"], []), (["u"], ["u^3 - u"]), "1", "u^2", (1, 2)),
])
def test_search_agrees_with_brute_force_over_prime_fields(p, src, tgt,
                                                          f_img, g_img,
                                                          bounds):
    a = A_of(GF(p), *src)
    b = A_of(GF(p), *tgt)
    f = AlgebraMorphism(a, b, [f_img])
    g = AlgebraMorphism(a, b, [g_img])
    bounds = SearchBounds(*bounds)
    expected = ("found" if _brute_force_homotopy_exists(f, g, bounds)
                else "none-within-bounds")
    assert homotopy_search(f, g, bounds).status == expected
