"""Elementary and chain algebraic homotopy between algebra morphisms.

An elementary homotopy from f to g (both A -> B) is a morphism H: A -> B[x]
with H(x=0) = f and H(x=1) = g.  Verification is exact; the bounded search
solves for a point of the map space M(A, B[x]) truncated to the standard
monomials of B times powers of x.  Over a prime field the search is complete
within its bounds; over the rationals it is sound and may return "undecided".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import (AlgebraMorphism, ElementRep, PolynomialExtension,
                      field_algebra, polynomial_extension)
from .errors import HypothesisError, MorphismError, PropertyViolationError
from .mapspace import (MapSpacePresentation, mapspace_presentation,
                       morphism_from_point)
from .polyring import Polynomial
from .solve import solve_system


@dataclass(frozen=True)
class SearchBounds:
    """Degree caps for the homotopy search: in x and in the target algebra."""

    xdeg: int
    bdeg: int

    def __post_init__(self):
        if self.xdeg < 0 or self.bdeg < 0:
            raise ValueError("search bounds must be non-negative")


class ElementaryHomotopy:
    """A verified homotopy H: A -> B[x] with recorded endpoints."""

    def __init__(self, f: AlgebraMorphism, g: AlgebraMorphism,
                 h: AlgebraMorphism, ext: PolynomialExtension):
        if f.source != g.source or f.target != g.target:
            raise MorphismError("endpoints must share source and target")
        if ext.base != f.target:
            raise MorphismError("homotopy extension built over the wrong target")
        if h.source != f.source or h.target != ext.algebra:
            raise MorphismError("H must map the source into target[x]")
        left = ext.p0.compose(h)
        if left != f:
            raise MorphismError("endpoint mismatch at x=0")
        right = ext.p1.compose(h)
        if right != g:
            raise MorphismError("endpoint mismatch at x=1")
        self.f = f
        self.g = g
        self.h = h
        self.ext = ext

    def reversed(self) -> "ElementaryHomotopy":
        """The certificate for g ≈ f obtained by composing with x -> 1-x."""
        return ElementaryHomotopy(self.g, self.f,
                                  self.ext.flip.compose(self.h), self.ext)

    def __repr__(self):
        return f"<homotopy {self.f!r} ~ {self.g!r}>"


def homotopy_verify(f: AlgebraMorphism, g: AlgebraMorphism,
                    h: AlgebraMorphism, ext: PolynomialExtension | None = None
                    ) -> ElementaryHomotopy:
    """Accept H iff it is a morphism into f's target[x], named after H's
    last variable, with the two endpoint identities."""
    if ext is None:
        name = h.target.vars[-1] if h.target.vars else "x"
        ext = polynomial_extension(f.target, name)
    return ElementaryHomotopy(f, g, h, ext)


def constant_homotopy(f: AlgebraMorphism) -> ElementaryHomotopy:
    ext = polynomial_extension(f.target)
    return ElementaryHomotopy(f, f, ext.embed.compose(f), ext)


@dataclass
class SearchResult:
    status: str                          # found | none-within-bounds | undecided
    certificate: ElementaryHomotopy | None = None
    detail: str = ""


def homotopy_search(f: AlgebraMorphism, g: AlgebraMorphism,
                    bounds: SearchBounds) -> SearchResult:
    """Decide f ≈ g by an elementary homotopy within the degree bounds.

    H is a point of the map space M(A, B[x]) truncated to the slots w·x^k,
    w a standard monomial of B of degree <= bdeg and k <= xdeg, that meets
    the two endpoint conditions.  The endpoint equations are linear in the
    coordinates, the map-space relations polynomial; the combined system is
    solved exactly.  Over F_p a "none-within-bounds" answer is exhaustive;
    over Q it is certified by 1 lying in the constraint ideal.
    """
    if f.source != g.source or f.target != g.target:
        raise MorphismError("endpoints must share source and target")
    if f == g:
        return SearchResult("found", constant_homotopy(f))
    a, b = f.source, f.target
    ext = polynomial_extension(b)
    slots = [tuple(w) + (k,) for w in b.standard_monomials(bounds.bdeg)
             for k in range(bounds.xdeg + 1)]
    m = mapspace_presentation(a, ext.algebra, slots)
    # linear equations first: the F_p search tests the equations in order,
    # and most candidates already fail an endpoint equation
    constraints = []
    for gi in range(a.arity):
        constraints += _endpoint_equations(m, gi, f.images[gi], at_one=False)
        constraints += _endpoint_equations(m, gi, g.images[gi], at_one=True)
    constraints += m.algebra.relations
    result = solve_system(constraints, m.n_z, m.field)
    if result.solutions:
        point = AlgebraMorphism(
            m.algebra, field_algebra(m.field),
            [Polynomial.constant(c, 0, m.field) for c in result.solutions[0]],
            check=False)
        h = morphism_from_point(m, point)
        return SearchResult("found", ElementaryHomotopy(f, g, h, ext))
    if result.complete:
        return SearchResult("none-within-bounds",
                            detail=f"{len(constraints)} constraints, "
                                   f"{m.n_z} unknowns")
    return SearchResult("undecided",
                        detail="rational solver could not certify emptiness")


def _endpoint_equations(m: MapSpacePresentation, gi: int, image: Polynomial,
                        at_one: bool) -> list[Polynomial]:
    """The linear equations on the coordinates of m saying that H(a_gi) at
    x = 1 (or x = 0) equals `image`, one per monomial of B; a monomial of
    `image` outside the slots gives a constant equation."""
    eqs = {w: -Polynomial.constant(c, m.n_z, m.field)
           for w, c in image.terms.items()}
    for v in m.monomials:
        if at_one or v[-1] == 0:
            w = v[:-1]
            z = Polynomial.variable(m.z_index[(gi, v)], m.n_z, m.field)
            eqs[w] = eqs[w] + z if w in eqs else z
    return list(eqs.values())


# ---------------------------------------------------------------------------
# chains


class HomotopyChain:
    """A chain f = h0 ≈ h1 ≈ ... ≈ hn = g of elementary homotopies."""

    def __init__(self, links: Sequence[ElementaryHomotopy]):
        if not links:
            raise ValueError("a chain needs at least one link")
        self.links = tuple(links)

    @property
    def start(self) -> AlgebraMorphism:
        return self.links[0].f

    @property
    def end(self) -> AlgebraMorphism:
        return self.links[-1].g


def chain_verify(links: Sequence[ElementaryHomotopy]) -> HomotopyChain:
    """Accept iff each link verifies and adjacent endpoints agree exactly."""
    chain = HomotopyChain(links)
    for idx, link in enumerate(chain.links):
        # construction re-verifies; re-run the endpoint identities explicitly
        ElementaryHomotopy(link.f, link.g, link.h, link.ext)
        if idx + 1 < len(chain.links) and link.g != chain.links[idx + 1].f:
            raise PropertyViolationError(
                f"chain broken between links {idx} and {idx + 1}",
                witness=idx)
    return chain


# ---------------------------------------------------------------------------
# constancy certificates


@dataclass
class ConstancyReport:
    constant: bool
    witness: ElementRep | None      # the constant part, or an x-coefficient


def constancy_check(p: ElementRep, ext: PolynomialExtension, mode: str,
                    k: int | None = None,
                    minpoly: Sequence | None = None) -> ConstancyReport:
    """Certify that an element of C[x] is constant in x.

    mode "power": requires p^k = p exactly with char(F) not dividing k-1.
    mode "integral": requires a vanishing F-polynomial for p (caller asserts
    C has no nonzero nilpotents).  Returns the constant witness, or the first
    nonzero x-coefficient as a counterexample certificate.
    """
    cx = ext.algebra
    if p.algebra != cx:
        raise HypothesisError("element does not live in the given C[x]")
    if mode == "power":
        if k is None or k < 2:
            raise HypothesisError("power mode needs an exponent k >= 2")
        char = cx.field.char
        if char and (k - 1) % char == 0:
            raise HypothesisError(f"characteristic {char} divides k-1 = {k - 1}")
        if (p ** k) != p:
            raise HypothesisError(f"p^{k} != p: power hypothesis fails")
    elif mode == "integral":
        if not minpoly or all(cx.field.scalar(c) == cx.field.zero()
                              for c in minpoly):
            raise HypothesisError("integral mode needs a nonzero vanishing "
                                  "polynomial")
        acc = cx.zero_element()
        power = cx.one_element()
        for c in minpoly:
            acc = acc + power.scale(c)
            power = power * p
        if not acc.is_zero:
            raise HypothesisError("the given polynomial does not vanish on p")
    else:
        raise ValueError(f"unknown constancy mode {mode!r}")
    x_idx = ext.x_index
    for mono in sorted(p.poly.terms):
        if mono[x_idx] > 0:
            coeff = Polynomial(cx.arity, cx.field,
                               {mono: p.poly.terms[mono]})
            return ConstancyReport(False, ElementRep(cx, coeff))
    return ConstancyReport(True, ext.p0.apply(p))
