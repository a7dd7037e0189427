"""Tests for Kähler differentials, kernel computation, and the formal integral."""

from __future__ import annotations

import random

import pytest

from affpi0.algebra import AlgebraPresentation, polynomial_extension
from affpi0.derham import (DifferentialForm, TruncatedKernel, derham_h0,
                           exterior_derivative, form_is_zero, integral_phi1,
                           integration_homotopy_check, jacobian_rows,
                           subalgebra_closure_check, universal_derivation)
from affpi0.errors import RingMismatchError, UnsupportedFieldError
from affpi0.polyring import GF, QQ, Polynomial


def A_of(field, names, rels):
    return AlgebraPresentation(field, names, rels)


CUBIC = A_of(QQ, ["x"], ["x^3 - x"])
IDEMP = A_of(QQ, ["e"], ["e^2 - e"])


def test_derivation_power_rule():
    a = A_of(QQ, ["x"], [])
    d = universal_derivation(a.element("x^2"))
    assert d.coeffs[(0,)] == a.parse("2*x")


def test_derivation_of_unit_is_zero():
    assert universal_derivation(CUBIC.one_element()).is_zero


def test_derivation_of_idempotent_and_jacobian_row():
    d = universal_derivation(IDEMP.element("e"))
    assert d.coeffs[(0,)] == IDEMP.parse("1")
    row = jacobian_rows(IDEMP)[0]
    assert row.coeffs[(0,)] == IDEMP.parse("2*e - 1")
    # (2e-1)·de is a relation, and de itself already lies in the submodule
    ok, _ = form_is_zero(d)
    assert ok


def test_form_is_zero_negative_case_with_residual():
    a = A_of(QQ, ["x"], [])
    d = universal_derivation(a.element("x"))
    ok, residual = form_is_zero(d)
    assert not ok and residual is not None and not residual.is_zero


def test_form_is_zero_jacobian_row_itself():
    d = DifferentialForm(CUBIC, 1, {(0,): CUBIC.parse("3*x^2 - 1")})
    ok, _ = form_is_zero(d)
    assert ok


def test_leibniz_on_random_pairs():
    a = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])
    rng = random.Random(5)
    for _ in range(50):
        p = Polynomial.zero(2, QQ)
        q = Polynomial.zero(2, QQ)
        for _ in range(3):
            p = p + Polynomial.monomial(
                (rng.randint(0, 2), rng.randint(0, 1)), QQ, rng.randint(-2, 2))
            q = q + Polynomial.monomial(
                (rng.randint(0, 1), rng.randint(0, 2)), QQ, rng.randint(-2, 2))
        ep, eq = a.element(p), a.element(q)
        lhs = universal_derivation(ep * eq)
        rhs_coeffs = {}
        for (i,), c in universal_derivation(eq).coeffs.items():
            rhs_coeffs[(i,)] = ep.poly * c
        for (i,), c in universal_derivation(ep).coeffs.items():
            prev = rhs_coeffs.get((i,), Polynomial.zero(2, QQ))
            rhs_coeffs[(i,)] = prev + eq.poly * c
        diff = lhs - DifferentialForm(a, 1, rhs_coeffs)
        ok, _ = form_is_zero(diff) if not diff.is_zero else (True, None)
        assert ok


# ---------------------------------------------------------------------------
# degree-0 kernel


def test_h0_of_the_affine_line():
    k = derham_h0(A_of(QQ, ["x"], []), 4)
    assert k.dimension == 1
    assert k.basis[0].poly.total_degree() == 0


def test_h0_three_points_is_everything():
    k = derham_h0(CUBIC, 2)
    assert k.dimension == 3


def test_h0_node_is_connected():
    k = derham_h0(A_of(QQ, ["x", "y"], ["x*y"]), 4)
    assert k.dimension == 1


def test_h0_circle_is_connected_and_stabilizes():
    k = derham_h0(A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"]), 6)
    assert k.dimension == 1
    assert k.stabilized


def test_h0_contains_unit_and_closed_under_products():
    for a, deg in ((CUBIC, 3), (IDEMP, 2)):
        k = derham_h0(a, deg)
        assert any(e == a.one_element() for e in k.basis) or any(
            not (e.poly.constant_term() == 0) for e in k.basis)
        assert subalgebra_closure_check(k)


def test_closure_check_fails_on_a_basis_not_closed_under_products():
    # x·x = x² lies in the degree-2 slice of Q[x] but outside span{1, x}
    a = A_of(QQ, ["x"], [])
    kernel = TruncatedKernel(a, 2, [a.one_element(), a.element("x")],
                             stabilized=False, char_zero=True)
    assert not subalgebra_closure_check(kernel)


def test_h0_over_prime_field_flagged():
    k = derham_h0(A_of(GF(5), ["x"], ["x^5 - x"]), 4)
    assert not k.char_zero


def test_h0_stabilization_on_desk_examples():
    for a, deg in ((CUBIC, 3), (IDEMP, 2)):
        low = derham_h0(a, deg)
        high = derham_h0(a, deg + 1)
        assert low.dimension == high.dimension
        assert high.stabilized


# ---------------------------------------------------------------------------
# degree 1 -> 2


def test_exterior_derivative_antisymmetry():
    a = A_of(QQ, ["x", "y"], [])
    omega = DifferentialForm(a, 1, {(0,): a.parse("y")})
    d = exterior_derivative(omega)
    assert d.coeffs[(0, 1)] == a.parse("-1")


def test_adding_forms_of_different_degrees_or_algebras_is_a_mismatch():
    a = A_of(QQ, ["x", "y"], [])
    omega = DifferentialForm(a, 1, {(0,): a.parse("y")})
    with pytest.raises(RingMismatchError):
        omega + DifferentialForm(a, 2, {(0, 1): a.parse("x")})
    b = A_of(QQ, ["x", "y"], ["x*y"])
    with pytest.raises(RingMismatchError):
        omega + DifferentialForm(b, 1, {(0,): b.parse("y")})


def test_dd_zero_on_degree_zero():
    a = A_of(QQ, ["x", "y"], ["x^2 + y^2 - 1"])
    for text in ("x^2*y", "x + 3*y^2", "x*y"):
        dd = exterior_derivative(universal_derivation(a.element(text)))
        assert dd.is_zero


def test_d_of_x_dx_vanishes():
    a = A_of(QQ, ["x"], [])
    omega = DifferentialForm(a, 1, {(0,): a.parse("x")})
    assert exterior_derivative(omega).is_zero


# ---------------------------------------------------------------------------
# formal integral


def test_integral_phi1_example():
    a = A_of(QQ, ["y"], [])
    ext = polynomial_extension(a)
    elem = ext.algebra.element("y*x^2 + x")
    val = integral_phi1(universal_derivation(elem), ext)
    assert val == a.element("y + 1")
    lhs = ext.p1.apply(elem) - ext.p0.apply(elem)
    assert lhs == val


def test_integral_identity_exact_for_monomials():
    a = A_of(QQ, ["y"], [])
    ext = polynomial_extension(a)
    samples = [ext.algebra.element(f"y^{j}*x^{k}")
               for j in range(4) for k in range(7)]
    forms = [DifferentialForm(ext.algebra, 1,
                              {(0,): ext.algebra.parse("x*y"),
                               (1,): ext.algebra.parse("y^2")})]
    rep = integration_homotopy_check(a, samples, forms, ext)
    assert rep["ok"]


def test_integral_x_free_element_gives_zero():
    a = A_of(QQ, ["y"], [])
    ext = polynomial_extension(a)
    elem = ext.algebra.element("y^3")
    assert integral_phi1(universal_derivation(elem), ext).is_zero


def test_integral_char_p_unsupported_when_needed():
    a = A_of(GF(3), ["y"], [])
    ext = polynomial_extension(a)
    omega = DifferentialForm(ext.algebra, 1, {(1,): ext.algebra.parse("x^2")})
    with pytest.raises(UnsupportedFieldError):
        integral_phi1(omega, ext)  # dx·(x^2·1) needs 1/3


@pytest.mark.parametrize("p", [2, 3])
def test_integration_check_needs_each_brought_down_exponent(p):
    """d(x^p·w) = p·x^(p-1)·w·dx is zero in characteristic p, so phi^1 never
    asks for 1/p; the check still refuses a field without it, in degree 0
    and in the dx-free part of degree 1, instead of reporting a failure."""
    a = A_of(GF(p), ["y"], [])
    ext = polynomial_extension(a)
    x_p = ext.algebra.parse(f"x^{p}")
    with pytest.raises(UnsupportedFieldError, match=f"needs 1/{p}$"):
        integration_homotopy_check(a, [ext.algebra.element(x_p)], [], ext)
    omega = DifferentialForm(ext.algebra, 1, {(0,): x_p})
    with pytest.raises(UnsupportedFieldError, match=f"needs 1/{p}$"):
        integration_homotopy_check(a, [], [omega], ext)
    # a dx coefficient x^p only needs 1/(p+1)
    omega = DifferentialForm(ext.algebra, 1, {(1,): x_p})
    assert integration_homotopy_check(a, [], [omega], ext)["ok"]


def test_integral_degree1_identity_with_dx_coefficient():
    a = A_of(QQ, ["y"], [])
    ext = polynomial_extension(a)
    omega = DifferentialForm(ext.algebra, 1, {(1,): ext.algebra.parse("x*y")})
    rep = integration_homotopy_check(a, [], [omega], ext)
    assert rep["ok"]


def test_kernel_over_prime_field_flagged_not_pi0():
    a = A_of(GF(5), ["x"], ["x^5 - x"])
    k = derham_h0(a, 4)
    # the Jacobian row is the unit -1, so the whole slice is in the kernel
    assert k.dimension == 5
    assert not k.char_zero


STABILIZATION_ALGEBRAS = [
    (["x"], ["x^3 - x"]), (["x", "y"], ["x^2 + y^2 - 1"]),
    (["x", "y"], ["y^2 - x^2 - x^3"]), (["x", "y"], ["y^2 - x^3"]),
    (["e"], ["e^2"]), (["t"], []), (["x", "y"], ["y^2 - y"]),
    (["x", "y"], ["x*y"]), (["x", "y"], ["x*y - 1"]), (["x"], ["x^5"]),
    (["x"], ["x^2 - x"]), (["x", "y"], ["x^2", "y^2"]),
    (["x", "y"], ["x^2 - x", "y^2 - y"]), (["x", "y", "z"], ["x*y - z"]),
    (["x"], ["x^4 - 1"]),
]


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=str)
@pytest.mark.parametrize("names, rels", STABILIZATION_ALGEBRAS)
def test_stabilized_flag_compares_with_the_kernel_one_degree_lower(
        field, names, rels):
    a = A_of(field, names, rels)
    for degree in range(5):
        kernel = derham_h0(a, degree)
        lower = derham_h0(a, degree - 1).dimension if degree else 0
        assert kernel.stabilized == (lower == kernel.dimension), degree
