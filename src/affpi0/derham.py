"""Kähler differentials at low degree and degree-0 de Rham cohomology.

For A = F[x1..xn]/(r1..rm) the degree-1 module is free on the symbols dx_i
modulo the Jacobian rows of the relations; degree 2 is spanned by dx_i∧dx_j
(i < j).  Membership in the Jacobian submodule is decided by exact linear
algebra with a degree slack, so every reported kernel element carries an
exact certificate; completeness beyond the cutoff is a stabilization
heuristic, reported as such, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import linalg
from .algebra import AlgebraPresentation, ElementRep, PolynomialExtension
from .errors import (PropertyViolationError, RingMismatchError,
                     UnsupportedFieldError)
from .polyring import Monomial, Polynomial


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


def _span_rows(a: AlgebraPresentation, slack: int
               ) -> list[dict[tuple[int, ...], Polynomial]]:
    """Multiplier-monomial times Jacobian-row generators of the submodule."""
    rows = []
    multipliers = a.standard_monomials(slack)
    for base in jacobian_rows(a):
        for mult in multipliers:
            row = DifferentialForm(a, 1, {idx: c.mul_monomial(mult) for idx, c
                                          in base.coeffs.items()}).coeffs
            if row:
                rows.append(row)
    return rows


def form_is_zero(omega: DifferentialForm, slack: int
                 ) -> tuple[bool, DifferentialForm | None]:
    """Exact membership of a degree-1 form in the Jacobian submodule.

    Multipliers range over standard monomials of degree <= slack.  On failure
    the residual (the form itself, which has no expansion in that span) is
    returned as evidence.
    """
    if omega.degree != 1:
        raise ValueError("form_is_zero decides degree-1 forms")
    if omega.is_zero:
        return True, None
    ok = _in_jacobian_span(omega, _span_rows(omega.algebra, slack))
    return (True, None) if ok else (False, omega)


def _in_jacobian_span(omega: DifferentialForm,
                      span: list[dict[tuple[int, ...], Polynomial]]) -> bool:
    a = omega.algebra
    monomials = _support([*span, omega.coeffs])
    return linalg.in_span([_flatten(a, row, monomials) for row in span],
                          _flatten(a, omega.coeffs, monomials), a.field)


def _support(forms: Iterable[dict[tuple[int, ...], Polynomial]]
             ) -> list[Monomial]:
    """The sorted monomials of the coefficients of degree-1 forms."""
    return sorted({m for coeffs in forms for c in coeffs.values()
                   for m in c.terms})


def _flatten(a: AlgebraPresentation,
             coeffs: dict[tuple[int, ...], Polynomial],
             monomials: Sequence[Monomial]) -> list:
    """A degree-1 form as one vector: the coordinates of its dx_i
    coefficient in `monomials`, for i = 0..n-1 in turn."""
    zeros = [a.field.zero()] * len(monomials)
    flat = []
    for i in range(a.arity):
        c = coeffs.get((i,))
        flat.extend(zeros if c is None else c.coefficients(monomials))
    return flat


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

    Every basis element is certified by exact membership of its differential
    in the Jacobian submodule (with multiplier slack D+2); the stabilization
    flag compares with the slice one degree lower.  That kernel is the part
    of this one with no term of degree D, so the two agree exactly when no
    basis element has degree D.
    """
    span = _span_rows(a, degree + 2)
    basis = _kernel_basis(a, degree, span)
    stabilized = all(e.poly.total_degree() < degree for e in basis)
    for elem in basis:
        omega = universal_derivation(elem)
        if not (omega.is_zero or _in_jacobian_span(omega, span)):
            raise PropertyViolationError(
                "kernel element failed its certificate", witness=elem)
    return TruncatedKernel(a, degree, basis, stabilized, a.field.is_rational)


def _kernel_basis(a: AlgebraPresentation, degree: int,
                  span: list[dict[tuple[int, ...], Polynomial]]
                  ) -> list[ElementRep]:
    slice_monos = a.standard_monomials(degree)
    if not slice_monos:
        return []
    diffs = [universal_derivation(a.element(Polynomial.monomial(m, a.field)))
             for m in slice_monos]
    forms = [d.coeffs for d in diffs] + span
    monomials = _support(forms)
    # relations sum c_m d(m) + sum l_k row_k = 0 among the differentials of
    # the slice monomials and the span rows; the slice parts c are the kernel
    null = linalg.left_nullspace(
        [_flatten(a, coeffs, monomials) for coeffs in forms], a.field)
    slice_part = [vec[:len(slice_monos)] for vec in null]
    return [a.element(Polynomial.combination(a.arity, a.field, slice_monos, row))
            for row in linalg.row_basis(slice_part, a.field)]


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
    + d(phi^1(w)).  Characteristic-p inputs fail with an explicit error as
    soon as a needed 1/(k+1) does not exist.
    """
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
