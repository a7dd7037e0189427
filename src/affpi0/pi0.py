"""The path-component subalgebra by three routes, and the pi0 scheme.

Route one (primary, characteristic 0): the kernel of the universal
derivation.  Route two (definitional): elements whose images under the two
evaluations of the universal polynomial family agree at every computed tower
level; the difference of the two is reduced by the level's basis truncated
at the weight it can reach (`MapSpacePresentation.bounded_basis`).  Route
three: the idempotent / k-th-root solvers that feed component counting.
The routes are independent implementations and cross-check each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .algebra import (AlgebraMorphism, AlgebraPresentation, ElementRep,
                      tensor_product)
from .derham import derham_h0
from .errors import (HypothesisError, PropertyViolationError,
                     UnsupportedFieldError)
from .mapspace import (MapSpacePresentation, mapspace_presentation,
                       require_tower)
from .polyring import DEGREVLEX, Polynomial, elimination_ideal
from .solve import SolveResult, solve_system


# ---------------------------------------------------------------------------
# equalizer route


@dataclass
class EqualizerVerdict:
    passed: bool
    level: int                   # first failing level, or the last one checked
    residual: Polynomial | None  # nonzero, reduced by the bounded basis


def equalizer_membership(a: AlgebraPresentation, elem: ElementRep,
                         towerdepth: int) -> EqualizerVerdict:
    """Test the two evaluations of the universal line family on one element.

    At each level d = 1..towerdepth the image of the element in
    F[x] ⊗ M_d(A, F[x]) is evaluated at x=0 and x=1; the difference, of
    weight at most deg·d, must lie in the level ideal, which the level's
    basis truncated at that weight decides, as in the cut
    (`_evaluation_difference`).  Returns the first failing level with its
    residual.
    With towerdepth < 1 no level would be checked, so that is a
    HypothesisError.
    """
    if elem.algebra != a:
        raise ValueError("element of a different algebra")
    require_tower(towerdepth)
    for d in range(1, towerdepth + 1):
        m = _line_level(a, d)
        diff = _evaluation_difference(
            m, elem.poly, _weight_bound(m, elem.poly.total_degree()))
        if not diff.is_zero:
            return EqualizerVerdict(False, d, diff)
    return EqualizerVerdict(True, towerdepth, None)


def _line_level(a: AlgebraPresentation, d: int) -> MapSpacePresentation:
    """Level d of M(A, F[x]).  Level 0 is degenerate: the image of every
    element is x-free there, so the equalizer test never fails on it."""
    return mapspace_presentation(a, AlgebraPresentation(a.field, ["x"], []), d)


def _weight_bound(m: MapSpacePresentation, degree: int) -> int:
    """degree·T, with T the top weight |v| of the level's coordinates: the
    highest weight the evaluation difference of an element of degree
    `degree` reaches, since each generator goes to a sum of z[a,v] of
    weight at most T."""
    return max(degree, 0) * max(m.weight_order.weights, default=0)


def _evaluation_difference(m: MapSpacePresentation, poly: Polynomial,
                           bound: int) -> Polynomial:
    """(x->1) - (x->0) of the universal image υ(poly), in the level
    algebra: the sum of υ(poly)'s x^k coefficients for k >= 1.  B = F[x]
    is free, so each evaluation is the universal family at a point of B:
    poly(y) - poly(y'), with y at x=1 and y' at x=0, goes through one
    substitution and one reduction (`families_at`) by the level's basis
    bounded at weight `bound`, which must be at least `_weight_bound` of
    poly's degree.  It is zero exactly when the difference lies in the
    level ideal."""
    n = m.a.arity
    twice = (poly.extend_arity(2 * n, range(n))
             - poly.extend_arity(2 * n, range(n, 2 * n)))
    return m.families_at(twice, [(1,), (0,)], bound)


@dataclass
class EqualizerSubspace:
    algebra: AlgebraPresentation
    degree: int
    tower: int
    basis: list[ElementRep]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def equalizer_subspace(a: AlgebraPresentation, degree: int, tower: int
                       ) -> EqualizerSubspace:
    """Slice elements passing the equalizer test at levels 1..tower.

    Only level `tower` is built: the structural map M_T -> M_d carries the
    level-T family to the level-d one, so the verdict is monotone and an
    element that passes at level T passes at every level below.  Of that
    level only the basis truncated at weight degree·T is computed (`_cut`).
    With tower < 1 no level would be checked, so that is a
    HypothesisError.
    """
    require_tower(tower)
    return EqualizerSubspace(a, degree, tower, a.elements(
        *_cut(a, degree, _line_level(a, tower))))


def _cut(a: AlgebraPresentation, degree: int, m: MapSpacePresentation,
         bound: int | None = None) -> tuple[list, list[list]]:
    """The slice's monomials and the canonical basis (the RREF rows) of the
    slice vectors that pass the equalizer at level m: the relations among
    the slice monomials' evaluation differences.  Every difference has
    weight at most degree·T (`_weight_bound`), so one basis of the level,
    truncated there or at any heavier `bound`, reduces them all; its normal
    forms are linear and vanish exactly on the level ideal, so the
    relations are those of the full basis."""
    slice_monos = a.standard_monomials(degree)
    if bound is None:
        bound = _weight_bound(m, degree)
    diffs = [_evaluation_difference(m, Polynomial.monomial(v, a.field), bound)
             for v in slice_monos]
    return slice_monos, linalg.relations(diffs, a.field)


# ---------------------------------------------------------------------------
# idempotent and k-th root solvers


@dataclass
class IdempotentReport:
    idempotents: list[ElementRep]
    complete: bool

    @property
    def count(self) -> int:
        return len(self.idempotents)


def _root_solutions(a: AlgebraPresentation, k: int, slice_monos: Sequence,
                    cut: list[list]) -> tuple[list[ElementRep], bool]:
    """Solve e^k = e with e supported on the slice `slice_monos`.

    The unknowns are the coordinates of the slice's level-1 equalizer cut
    `cut`, which holds every solution: the image of e in M_1[x] solves
    e^k = e, so f = e^(k-1) is an idempotent of a polynomial ring, hence
    constant, and (k·f - 1)·e' = 0 with k·f - 1 a unit when char ∤ k-1, so
    e' = 0; in characteristic p that puts e in M_1[x^p], where the same
    argument lowers the degree, so e is constant and both evaluations agree.
    """
    field = a.field
    r = len(cut)
    # generic element over the cut's coordinates u, in A ⊗ F[u]
    ring = tensor_product(a, AlgebraPresentation(
        field, [f"u{j}" for j in range(r)]))
    terms = {}
    for j, row in enumerate(cut):
        unknown = (0,) * j + (1,) + (0,) * (r - j - 1)
        for m, c in zip(slice_monos, row):
            if c:
                terms[m + unknown] = c
    generic = Polynomial(ring.arity, field, terms)
    constraint = generic ** k - generic
    system = list(ring.nf(constraint).split(a.arity).values())
    result: SolveResult = solve_system(system, r, field)
    # slice coordinates, sorted as the solver sorts them
    vectors = sorted(map(tuple, linalg.mat_mul(result.solutions, cut, field)))
    elems = a.elements(slice_monos, vectors)
    for e in elems:
        if (e ** k) != e:
            raise PropertyViolationError("solver returned a non-solution",
                                         witness=e)
    return elems, result.complete


def idempotent_search(a: AlgebraPresentation, degree: int) -> IdempotentReport:
    """All idempotents supported on the slice, with an exactness flag."""
    return IdempotentReport(*_root_solutions(
        a, 2, *_cut(a, degree, _line_level(a, 1))))


def primitive_idempotents(report: IdempotentReport) -> list[ElementRep]:
    """Minimal nonzero idempotents under e <= f iff e·f = e, in the
    report's order.  Idempotents commute, so one product e·f decides both
    e <= f and f <= e: each unordered pair is multiplied once, and not at
    all when both its members already lie strictly above another."""
    nonzero = [e for e in report.idempotents if not e.is_zero]
    above = [False] * len(nonzero)
    for i, j in itertools.combinations(range(len(nonzero)), 2):
        if above[i] and above[j]:
            continue
        e, f = nonzero[i], nonzero[j]
        product = e * f
        if product == e != f:
            above[j] = True
        elif product == f != e:
            above[i] = True
    return [e for e, up in zip(nonzero, above) if not up]


@dataclass
class RootSubalgebra:
    generators: list[ElementRep]
    complete: bool


def iskp_subalgebra(a: AlgebraPresentation, k: int, degree: int
                    ) -> RootSubalgebra:
    """Generators (the solutions of e^k = e on the slice) of the k-th-root
    subalgebra; requires char(F) not dividing k-1."""
    if k < 2:
        raise HypothesisError("k must be at least 2")
    char = a.field.char
    if char and (k - 1) % char == 0:
        raise HypothesisError(f"characteristic {char} divides k-1 = {k - 1}")
    return RootSubalgebra(*_root_solutions(
        a, k, *_cut(a, degree, _line_level(a, 1))))


# ---------------------------------------------------------------------------
# pi0 presentation


@dataclass
class Pi0Result:
    basis: list[ElementRep]
    presentation: AlgebraPresentation | None
    inclusion: AlgebraMorphism | None
    idempotents: IdempotentReport
    component_count: int | None

    @property
    def dimension(self) -> int:
        return len(self.basis)


def pi0_presentation(a: AlgebraPresentation, degree: int,
                     tower: int = 3) -> Pi0Result:
    """Present the path-component subalgebra and count components.

    Characteristic zero only: the de Rham kernel is the subalgebra, presented
    on fresh variables through an elimination ideal.  In characteristic 0
    the slice's level-1 equalizer cut is that kernel, so both are computed
    and their canonical bases (RREF rows over the slice monomials) must be
    equal.  No level above 1 is built, and of level 1 only one basis,
    bounded at the weight of the heavier of the two slices the check and
    the idempotent search read.  `tower` is only checked, since the
    equalizer route has no level below 1 (tower < 1 is a HypothesisError);
    ROADMAP item 8 may drop it.  The component count is emitted only when
    the idempotent search is complete, and either it covers a degree that
    holds every idempotent of A (`_idempotent_degree`), so the count is
    exact, or A looks reduced on the slice and the count is no lower than
    the presented subalgebra's.
    """
    if not a.field.is_rational:
        raise UnsupportedFieldError(
            "pi0 needs characteristic zero; over a prime field only the "
            "equalizer and idempotent routes run")
    require_tower(tower)
    kernel = derham_h0(a, degree)
    top = _idempotent_degree(a)
    level1 = _line_level(a, 1)
    # one basis of level 1, bounded at the heavier of the two slices'
    # weights, serves the de Rham check and the idempotent search
    bound = _weight_bound(level1, degree if top is None else max(degree, top))
    slice_monos, cut = _cut(a, degree, level1, bound)
    if [e.poly.coefficients(slice_monos) for e in kernel.basis] != cut:
        raise PropertyViolationError(
            "derham kernel and level-1 equalizer cut differ",
            witness=(kernel.basis, a.elements(slice_monos, cut)))
    pres, incl = _subalgebra_presentation(a, kernel.basis)
    idem = IdempotentReport(*_root_solutions(a, 2, slice_monos, cut))
    search = idem
    if top is not None and top > degree:
        search = IdempotentReport(*_root_solutions(
            a, 2, *_cut(a, top, level1, bound)))
    count = None
    if search.complete and (top is not None
                            or _no_nilpotents_on_slice(a, degree)):
        prims = primitive_idempotents(search)
        count = len(prims) if prims else (0 if a.is_zero_algebra() else 1)
        if top is None and count < _components_at_least(pres):
            count = None
    return Pi0Result(kernel.basis, pres, incl, idem, count)


def _idempotent_degree(a: AlgebraPresentation) -> int | None:
    """A degree whose slice holds the normal form of every idempotent of A,
    or None when none is known.

    When A is finite-dimensional, the top degree of its standard monomials.
    When A = F[x_1..x_n]/(f), infinite-dimensional (so n >= 2) with the
    single polynomial f of degree δ as its reduced degrevlex basis,
    D* = ⌊δ²/4⌋: an idempotent e splits f = c·G·H over F, with G and H
    collecting the irreducible factors where e is 0 and where e is 1, so
    V(G) and V(H) are disjoint and (G, H) = (1).  Jelonek's effective
    Nullstellensatz (Z. Jelonek, Invent. Math. 162, 2005) gives
    1 = aG + bH with deg aG <= deg G·deg H <= D*, over F since the
    certificate is a linear system.  aG is idempotent mod f, 0 on V(G) and
    1 on V(H), so it is e; and reduction by f, whose leading monomial has
    its top degree, raises no degree, so e's normal form lies in the
    D*-slice.
    """
    whole = a.finite_basis()
    if whole is not None:
        return max(map(sum, whole), default=0)
    gb = a.gb()
    if len(gb) != 1 or gb.order != DEGREVLEX:
        return None
    delta = gb.polys[0].total_degree()
    return delta * delta // 4


def _components_at_least(pres: AlgebraPresentation) -> int:
    """A certified lower bound on the component count of A: the count of
    the presented subalgebra, whose idempotents are idempotents of A, when
    it is finite and its search completes; 0 otherwise."""
    whole = pres.finite_basis()
    if whole is None:
        return 0
    search = idempotent_search(pres, max(map(sum, whole), default=0))
    return len(primitive_idempotents(search)) if search.complete else 0


def _subalgebra_presentation(a: AlgebraPresentation,
                             basis: Sequence[ElementRep]
                             ) -> tuple[AlgebraPresentation, AlgebraMorphism]:
    """Present the subalgebra spanned by `basis` via an elimination ideal."""
    field = a.field
    t = tensor_product(a, AlgebraPresentation(
        field, [f"y{i}" for i in range(len(basis))]))
    gens = list(t.relations) + [
        Polynomial.variable(a.arity + i, t.arity, field) - t.embed_a(b.poly)
        for i, b in enumerate(basis)]
    kernel_gens = elimination_ideal(gens, list(range(a.arity)))
    pres = AlgebraPresentation(field, t.factor_b.vars, kernel_gens)
    incl = AlgebraMorphism(pres, a, [b.poly for b in basis], check=True)
    return pres, incl


def _no_nilpotents_on_slice(a: AlgebraPresentation, degree: int) -> bool:
    """No certified nilpotents among slice monomials (a reducedness probe)."""
    for m in a.standard_monomials(degree):
        if sum(m) == 0:
            continue
        e = a.element(Polynomial.monomial(m, a.field))
        power = e
        for _ in range(max(2, degree)):
            power = power * e
            if power.is_zero and not e.is_zero:
                return False
    return True
