"""Kähler differentials at low degree and degree-0 de Rham cohomology.

For A = F[x1..xn]/(r1..rm) the degree-1 module is free on the symbols dx_i
modulo the Jacobian rows of the relations; degree 2 is spanned by dx_i∧dx_j
(i < j).  Membership in the Jacobian submodule is decided exactly, by a
normal form in one Gröbner basis of Ω¹_A, so the kernel on a degree slice is
exact and every reported element carries a certificate; completeness beyond
the slice is a stabilization heuristic, reported as such, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .algebra import AlgebraPresentation, ElementRep, PolynomialExtension
from .errors import (PropertyViolationError, RingMismatchError,
                     UnsupportedFieldError)
from .polyring import (GroebnerBasis, Monomial, Polynomial, groebner,
                       normal_form)


class DifferentialForm:
    """A form of degree 0, 1 or 2 with normal-form coefficients.

    Degree-1 coefficients are indexed by (i,), degree-2 by (i, j) with i < j
    (antisymmetry is normalized away at construction).
    """

    def __init__(self, algebra: AlgebraPresentation, degree: int,
                 coeffs: dict[tuple[int, ...], Polynomial]):
        self.algebra = algebra
        self.degree = degree
        clean = {}
        for idx, c in coeffs.items():
            if len(idx) != degree:
                raise ValueError("wedge index arity does not match the degree")
            c = algebra.nf(c)
            if not c.is_zero:
                clean[idx] = c
        self.coeffs = clean

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, DifferentialForm)
                and self.algebra == other.algebra
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        if self.degree != other.degree or self.algebra != other.algebra:
            raise RingMismatchError("forms of different degrees or algebras")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, Polynomial.zero(
                self.algebra.arity, self.algebra.field)) + c
        return DifferentialForm(self.algebra, self.degree, out)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + other.scale(-1)

    def scale(self, c) -> "DifferentialForm":
        return DifferentialForm(self.algebra, self.degree,
                                {i: p.scale(c) for i, p in self.coeffs.items()})

    def __repr__(self):
        names = self.algebra.vars
        if self.is_zero:
            return "<form 0>"
        bits = []
        for idx in sorted(self.coeffs):
            wedge = "∧".join(f"d{names[i]}" for i in idx) or "1"
            bits.append(f"({self.coeffs[idx].to_string(names)})·{wedge}")
        return "<form " + " + ".join(bits) + ">"


def jacobian_rows(a: AlgebraPresentation) -> list[DifferentialForm]:
    """The degree-1 relations: one row sum_i (dr_k/dx_i) dx_i per relation."""
    rows = []
    for r in a.relations:
        coeffs = {(i,): r.derivative(i) for i in range(a.arity)}
        rows.append(DifferentialForm(a, 1, coeffs))
    return rows


def universal_derivation(elem: ElementRep) -> DifferentialForm:
    """d(p) = sum_i (dp/dx_i) dx_i; Leibniz holds modulo the row relations."""
    a = elem.algebra
    coeffs = {(i,): elem.poly.derivative(i) for i in range(a.arity)}
    return DifferentialForm(a, 1, coeffs)


def exterior_derivative(omega: DifferentialForm) -> DifferentialForm:
    """Degree 1 -> 2: d(sum a_i dx_i) has dx_i∧dx_j coefficient da_j/dx_i - da_i/dx_j."""
    if omega.degree != 1:
        raise ValueError("exterior_derivative implemented for degree-1 forms")
    a = omega.algebra
    coeffs: dict[tuple[int, ...], Polynomial] = {}
    for (j,), c in omega.coeffs.items():
        for i in range(a.arity):
            if i == j:
                continue
            # d(c)∧dx_j contributes dc/dx_i · dx_i∧dx_j
            lo, hi = (i, j) if i < j else (j, i)
            sign = 1 if i < j else -1
            term = c.derivative(i).scale(sign)
            key = (lo, hi)
            coeffs[key] = coeffs.get(key, Polynomial.zero(a.arity, a.field)) + term
    return DifferentialForm(a, 2, coeffs)


# ---------------------------------------------------------------------------
# membership in the Jacobian submodule


def _omega_basis(a: AlgebraPresentation) -> GroebnerBasis:
    """Ω¹_A as the e-linear part of F[x, e]/(I, e_i·e_j, Σ_i ∂r/∂x_i·e_i).

    The generators are homogeneous in e, so a degree-1 form is zero in Ω¹_A
    exactly when its lift reduces to zero (G.-M. Greuel and G. Pfister, *A
    Singular Introduction to Commutative Algebra*, ch. 2)."""
    n = a.arity
    squares = [Polynomial.monomial((0,) * n + tuple(
        (k == i) + (k == j) for k in range(n)), a.field)
        for i in range(n) for j in range(i, n)]
    return groebner([g.extend_arity(2 * n, range(n)) for g in a.gb()]
                    + squares + [_lift(row) for row in jacobian_rows(a)])


def _lift(omega: DifferentialForm) -> Polynomial:
    """Σ c_i dx_i as Σ c_i·e_i in F[x, e]."""
    n = omega.algebra.arity
    return Polynomial(2 * n, omega.algebra.field, {
        m + (0,) * i + (1,) + (0,) * (n - i - 1): v
        for (i,), c in omega.coeffs.items() for m, v in c.terms.items()})


def _reduced(omega: DifferentialForm, omega_gb: GroebnerBasis
             ) -> Polynomial:
    """The normal form of a degree-1 form in Ω¹_A (`_omega_basis`)."""
    return normal_form(_lift(omega), omega_gb)


def form_is_zero(omega: DifferentialForm
                 ) -> tuple[bool, DifferentialForm | None]:
    """Exact membership of a degree-1 form in the Jacobian submodule.

    On failure the form itself is returned as evidence: its normal form in
    Ω¹_A is nonzero.
    """
    if omega.degree != 1:
        raise ValueError("form_is_zero decides degree-1 forms")
    ok = _reduced(omega, _omega_basis(omega.algebra)).is_zero
    return (True, None) if ok else (False, omega)


# ---------------------------------------------------------------------------
# degree-0 cohomology


@dataclass
class TruncatedKernel:
    """ker d restricted to the degree-bounded slice, with certificates."""

    algebra: AlgebraPresentation
    degree: int
    basis: list[ElementRep]
    stabilized: bool
    char_zero: bool          # False marks the "computed, but not pi0" case

    @property
    def dimension(self) -> int:
        return len(self.basis)


def derham_h0(a: AlgebraPresentation, degree: int) -> TruncatedKernel:
    """Exact kernel of the universal derivation on the degree-<=D slice.

    The kernel is the left kernel of the slice monomials' differentials,
    reduced in one Gröbner basis of Ω¹_A, and every basis element is
    certified by the same normal form; the stabilization flag compares with
    the slice one degree lower.  That kernel is the part of this one with no
    term of degree D, so the two agree exactly when no basis element has
    degree D.  The flag certifies nothing above D: on the four parabolas
    (y - x²)(y - x² - 1)(y - x² - 2)(y - x² - 3), D = 3 is stabilized with
    dimension 2, while D = 4 finds (y - x²)², dimension 3.
    """
    omega_gb = _omega_basis(a)
    basis = _kernel_basis(a, degree, omega_gb)
    stabilized = all(e.poly.total_degree() < degree for e in basis)
    for elem in basis:
        if not _reduced(universal_derivation(elem), omega_gb).is_zero:
            raise PropertyViolationError(
                "kernel element failed its certificate", witness=elem)
    return TruncatedKernel(a, degree, basis, stabilized, a.field.is_rational)


def _kernel_basis(a: AlgebraPresentation, degree: int,
                  omega_gb: GroebnerBasis) -> list[ElementRep]:
    slice_monos = a.standard_monomials(degree)
    reduced = [_reduced(universal_derivation(
        a.element(Polynomial.monomial(m, a.field))), omega_gb)
        for m in slice_monos]
    # the relations sum c_m·nf(d(m)) = 0 are the kernel, as slice vectors
    return a.elements(slice_monos, linalg.relations(reduced, a.field))


def subalgebra_closure_check(kernel: TruncatedKernel) -> bool:
    """Products of basis elements that stay inside the slice re-expand in it."""
    a = kernel.algebra
    slice_monos = a.standard_monomials(kernel.degree)
    rows = [elem.poly.coefficients(slice_monos) for elem in kernel.basis]
    for x in kernel.basis:
        for y in kernel.basis:
            prod = (x * y).poly
            if prod.total_degree() > kernel.degree:
                continue
            target = prod.coefficients(slice_monos)
            if target is None or not linalg.in_span(rows, target, a.field):
                return False
    return True


# ---------------------------------------------------------------------------
# the formal-integral cochain homotopy


def _integrate_x(p: Polynomial, base: AlgebraPresentation) -> Polynomial:
    """The formal integral over [0, 1] in the last variable: x^k·w -> w/(k+1)."""
    field = base.field
    terms: dict[Monomial, object] = {}
    for m, c in p.terms.items():
        w = m[:-1]
        v = field.add(terms.get(w, field.zero()),
                      field.mul(c, _invert_int(field, m[-1] + 1)))
        if v:
            terms[w] = v
        else:
            terms.pop(w, None)
    return Polynomial(base.arity, field, terms)


def _invert_int(field, k: int):
    try:
        return field.inv(field.scalar(k))
    except ZeroDivisionError:
        raise UnsupportedFieldError(
            f"characteristic divides {k}: the formal integral needs 1/{k}")


def integral_phi1(omega: DifferentialForm, ext: PolynomialExtension
                  ) -> ElementRep:
    """phi^1 on Omega^1(A[x]): dx·(x^k w) -> w/(k+1), the dx-free part -> 0."""
    ax = ext.algebra
    if omega.algebra != ax or omega.degree != 1:
        raise ValueError("phi^1 consumes degree-1 forms over A[x]")
    dx_part = omega.coeffs.get((ext.x_index,),
                               Polynomial.zero(ax.arity, ax.field))
    return ext.base.element(_integrate_x(dx_part, ext.base))


def integral_phi2(omega: DifferentialForm, ext: PolynomialExtension
                  ) -> DifferentialForm:
    """phi^2 on Omega^2(A[x]): dx·(x^k w) -> w/(k+1) for degree-1 w over A."""
    ax = ext.algebra
    if omega.algebra != ax or omega.degree != 2:
        raise ValueError("phi^2 consumes degree-2 forms over A[x]")
    coeffs: dict[tuple[int, ...], Polynomial] = {}
    for (i, j), c in omega.coeffs.items():
        if j != ext.x_index:
            continue  # no dx factor: the M_0 part maps to zero
        # stored dx_i∧dx = -dx·(dx_i): flip the sign for the dx·(x^k w) shape
        coeffs[(i,)] = -_integrate_x(c, ext.base)
    return DifferentialForm(ext.base, 1, coeffs)


def push_form(omega: DifferentialForm, morphism,
              target: AlgebraPresentation) -> DifferentialForm:
    """Apply an evaluation A[x] -> A to a degree-1 form (dx -> 0)."""
    src = omega.algebra
    coeffs: dict[tuple[int, ...], Polynomial] = {}
    for (i,), c in omega.coeffs.items():
        if i >= target.arity:
            continue  # d of a constant image
        img = morphism.apply_poly(c)
        key = (i,)
        prev = coeffs.get(key, Polynomial.zero(target.arity, target.field))
        coeffs[key] = prev + img
    return DifferentialForm(target, 1, coeffs)


def integration_homotopy_check(a: AlgebraPresentation,
                               degree0_samples: Sequence[ElementRep],
                               degree1_samples: Sequence[DifferentialForm],
                               ext: PolynomialExtension) -> dict:
    """Verify (p1-p0) = phi∘d + d∘phi on the supplied samples, exactly.

    Degree 0: (p1-p0)(a) = phi^1(da).  Degree 1: (p1-p0)(w) = phi^2(dw)
    + d(phi^1(w)).  The identity holds in characteristic 0; an input that
    needs a 1/k the field lacks fails with `UnsupportedFieldError`.  That
    is checked first for each x-exponent k that d brings down as a factor k,
    in the degree-0 samples and the dx-free part of the degree-1 samples:
    there d can vanish, so phi never asks for the 1/k.
    """
    x = ext.x_index
    polys = [elem.poly for elem in degree0_samples]
    polys += [c for omega in degree1_samples
              for (i,), c in omega.coeffs.items() if i != x]
    for k in sorted({m[x] for p in polys for m in p.terms} - {0}):
        _invert_int(a.field, k)
    failures = []
    for elem in degree0_samples:
        lhs = ext.p1.apply(elem) - ext.p0.apply(elem)
        rhs = integral_phi1(universal_derivation(elem), ext)
        if lhs != rhs:
            failures.append(("degree0", elem, lhs, rhs))
    for omega in degree1_samples:
        lhs = push_form(omega, ext.p1, a) - push_form(omega, ext.p0, a)
        rhs = integral_phi2(exterior_derivative(omega), ext)
        dphi = universal_derivation(integral_phi1(omega, ext))
        rhs = rhs + dphi
        if lhs != rhs:
            failures.append(("degree1", omega, lhs, rhs))
    return {"ok": not failures,
            "degree0_samples": len(degree0_samples),
            "degree1_samples": len(degree1_samples),
            "failures": failures}
