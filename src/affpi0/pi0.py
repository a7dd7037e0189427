"""The path-component subalgebra by three routes, and the pi0 scheme.

Route one (primary, characteristic 0): the kernel of the universal
derivation.  Route two (definitional): elements whose images under the two
evaluations of the universal polynomial family agree at every computed tower
level; the difference of the two is reduced by the level's basis truncated
at the weight it can reach (`MapSpacePresentation.bounded_basis`).  Route
three, which feeds component counting: the idempotents on a slice, split
off the algebra the level-1 cut generates (univariate factoring over Q,
Berlekamp's kernel over F_p), and the k-th-root solver.
The routes are independent implementations and cross-check each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Sequence

from . import linalg
from .algebra import (AlgebraMorphism, AlgebraPresentation, ElementRep,
                      tensor_product)
from .derham import derham_h0
from .errors import (HypothesisError, PropertyViolationError,
                     ResourceLimitError, RingMismatchError,
                     UnsupportedFieldError)
from .mapspace import (MapSpacePresentation, mapspace_presentation,
                       require_tower)
from .polyring import (DEGREVLEX, LIMITS, FieldDescriptor, Polynomial,
                       _split_at, elimination_ideal)
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
        raise RingMismatchError("element of a different algebra")
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
    """Solve e^k = e with e supported on the slice `slice_monos`, sorted by
    slice coordinates, each checked.

    Every solution lies in the slice's level-1 equalizer cut `cut`: the
    image of e in M_1[x] solves e^k = e, so f = e^(k-1) is an idempotent of
    a polynomial ring, hence constant, and (k·f - 1)·e' = 0 with k·f - 1 a
    unit when char ∤ k-1, so e' = 0; in characteristic p that puts e in
    M_1[x^p], where the same argument lowers the degree, so e is constant
    and both evaluations agree.
    For k = 2 over Q, or over F_p on a finite A, the idempotents are split
    off (`_split`) the finite algebra that 1 and the cut generate, complete
    by construction.  Otherwise the unknowns are the coordinates of the
    cut, and the system, A's coefficients of z^k − z at the generic element
    sum_j u_j·(row j of the cut), comes from one block substitution
    (`_split_at`) and goes to `solve_system`, whose rational roots over Q
    are the linear factors of its eliminants: on an infinite A over F_p the
    cut can hold an element with no minimal polynomial (y³ on the cusp
    y² = x³ over F_3), so the algebra it generates is infinite.  Every
    solution is checked by e ** k == e.
    """
    field = a.field
    if k == 2 and (field.is_rational or a.finite_basis() is not None):
        vectors = _slice_points(*_split(a, slice_monos, cut), slice_monos,
                                field)
        complete = True
    else:
        r = len(cut)
        terms = {}
        for j, row in enumerate(cut):
            unknown = (0,) * j + (1,) + (0,) * (r - j - 1)
            for m, c in zip(slice_monos, row):
                if c:
                    terms[m + unknown] = c
        generic = Polynomial(a.arity + r, field, terms)
        z = Polynomial.variable(0, 1, field)
        system = list(_split_at([z ** k - z], [generic], a.gb(), a.arity,
                                a.arity + r)[0].values())
        result: SolveResult = solve_system(system, r, field)
        # slice coordinates, sorted as the solver sorts them
        vectors = sorted(map(tuple, linalg.mat_mul(result.solutions, cut,
                                                   field)))
        complete = result.complete
    elems = a.elements(slice_monos, vectors)
    for e in elems:
        if e ** k != e:
            raise PropertyViolationError("solver returned a non-solution",
                                         witness=e)
    return elems, complete


def _split(a: AlgebraPresentation, slice_monos: Sequence, cut: list[list]
           ) -> tuple[list, list[list]]:
    """The primitive idempotents (atoms) of the subalgebra H of A that 1 and
    the cut generate (`_Closure`), as coefficient vectors over H's support
    monomials, which are returned first.  Every idempotent on the slice lies
    in the cut, hence in H, so it is a sum of atoms.  After the closure, H
    multiplies by its structure constants alone.

    Over Q: a primitive element h of H (deg μ_h = dim H) makes
    H = Q[z]/(μ_h), so the factors q^e of μ_h over Q give H's atoms by
    Chinese remainders.  Refining by basis elements alone would miss splits
    that only products show: (i, −i) and (i, i) of Q(i) × Q(i).  The
    candidates for h are H's basis elements, then Σ_i t^i·b_i for
    t = 1, 2, …: for H reduced of dimension n, h fails to be primitive when
    two of its n values over the algebraic closure agree, a polynomial of
    degree below n in t for each of the n(n−1)/2 pairs, so n(n−1)²/2 + 1
    values of t find one.  None found is a ResourceLimitError, never an
    answer.

    Over F_p: Frobenius is F_p-linear on H, so the Berlekamp subspace
    K = {b in H : b^p = b} is the left kernel of its matrix minus the
    identity.  An element b of K has a minimal polynomial dividing z^p − z,
    so it splits with distinct roots a_i, and its Lagrange idempotents
    L_i(b) (b·L_i(b) = a_i·L_i(b), summing to 1) refine the atoms, starting
    from {1}.  Refined by a basis of K, every element of K is F_p-valued on
    the atoms, so they are H's primitive idempotents."""
    # the kernel is imported by the first split, so a process that never
    # splits, as most CLI requests, does not load it at start-up
    from .factor import crt_idempotents, factor_int, roots_mod
    field = a.field
    h = _Closure(a, slice_monos, cut)
    n = len(h.rows)
    if n <= 1:
        # 0 or F: 1, if nonzero, is the only atom, and RREF keeps it as it is
        return h.support, h.rows
    basis = [[field.one() if i == j else field.zero() for i in range(n)]
             for j in range(n)]
    if field.is_rational:
        tries = n * (n - 1) ** 2 // 2 + 1
        candidates = itertools.chain(basis, (
            [field.scalar(t ** i) for i in range(n)]
            for t in range(1, tries + 1)))
        for x in candidates:
            powers, mu = h.minimal_polynomial(x)
            if len(mu) == n + 1:
                break
        else:
            raise ResourceLimitError(
                f"no primitive element among the {n + tries} candidates "
                f"that suffice for a reduced algebra of dimension {n}")
        den = lcm(*[c.denominator for c in mu])
        factors = factor_int([int(c * den) for c in mu])[1]
        atoms = linalg.mat_mul(crt_idempotents(factors, None), powers, field)
    else:
        p = field.p
        frobenius = [[field.sub(v, u) for v, u in zip(h.power(e, p), e)]
                     for e in basis]
        atoms = [h.unit]
        for b in linalg.left_nullspace(frobenius, field):
            powers, mu = h.minimal_polynomial(b)
            roots = roots_mod(mu, p)
            if len(roots) != len(mu) - 1:
                raise PropertyViolationError(
                    "an element of the Berlekamp subspace has a minimal "
                    "polynomial that does not split",
                    witness=Polynomial.combination(
                        a.arity, field, h.support,
                        linalg.mat_mul([b], h.rows, field)[0]))
            if len(roots) == 1:
                continue
            lagrange = linalg.mat_mul(crt_idempotents(
                [([-r % p, 1], 1) for r in roots], p), powers, field)
            atoms = [f for g in atoms
                     for f in linalg.mat_mul(lagrange, h.matrix(g), field)
                     if any(f)]
    return h.support, linalg.mat_mul(atoms, h.rows, field)


class _Closure:
    """The subalgebra H of A that 1 and the cut generate, on a basis b_i:
    the RREF `rows` over `support`, the monomials of H's normal forms in
    order of appearance.  An element's coordinates are its entries at the
    pivots of `rows`; `unit` holds those of 1, and the structure constants
    `table` those of the products, b_i·b_j at table[i][j·n:(j+1)·n].

    Each round of the closure multiplies every pair of basis elements by
    normal forms in A and ends it when all products lie in the span; the
    dimension is guarded by `LIMITS.max_split_dim`.  The methods work in
    coordinates, by the structure constants alone."""

    def __init__(self, a: AlgebraPresentation, slice_monos: Sequence,
                 cut: list[list]):
        field = self.field = a.field
        one = a.nf(Polynomial.one(a.arity, field))
        gens = [one] + [Polynomial.combination(a.arity, field, slice_monos,
                                               row) for row in cut]
        support = list(dict.fromkeys(m for g in gens for m in g.terms))
        rows = linalg.row_basis([g.coefficients(support) for g in gens],
                                field)
        while True:
            n = len(rows)
            if n > LIMITS.max_split_dim:
                raise ResourceLimitError(
                    f"the algebra the level-1 cut generates has dimension "
                    f"above guard max_split_dim = {LIMITS.max_split_dim}")
            pivots = [next(c for c, v in enumerate(row) if v) for row in rows]
            polys = [Polynomial.combination(a.arity, field, support, row)
                     for row in rows]
            products = {(i, j): a.nf(polys[i] * polys[j])
                        for i in range(n) for j in range(i, n)}
            known = set(support)
            support += [m for m in dict.fromkeys(
                m for prod in products.values() for m in prod.terms)
                if m not in known]
            padding = [field.zero()] * (len(support) - len(known))
            rows = [row + padding for row in rows]
            vectors = {ij: prod.coefficients(support)
                       for ij, prod in products.items()}
            outside = [v for v in vectors.values()
                       if linalg.mat_mul([[v[c] for c in pivots]], rows,
                                         field)[0] != v]
            if not outside:
                break
            rows = linalg.row_basis(rows + outside, field)
        self.support, self.rows = support, rows
        self.table = [[vectors[min(i, j), max(i, j)][c]
                       for j in range(n) for c in pivots] for i in range(n)]
        self.unit = [one.coefficients(support)[c] for c in pivots]

    def matrix(self, x: list) -> list[list]:
        """Multiplication by x: row j holds the coordinates of x·b_j."""
        n = len(x)
        flat = linalg.mat_mul([x], self.table, self.field)[0]
        return [flat[j * n:(j + 1) * n] for j in range(n)]

    def product(self, x: list, y: list) -> list:
        return linalg.mat_mul([y], self.matrix(x), self.field)[0]

    def power(self, x: list, e: int) -> list:
        """x^e by repeated squaring."""
        result = self.unit
        while e:
            if e & 1:
                result = self.product(result, x)
            e >>= 1
            if e:
                x = self.product(x, x)
        return result

    def minimal_polynomial(self, x: list) -> tuple[list[list], list]:
        """The powers 1, x, …, x^(d−1) as coordinate vectors, and x's
        minimal polynomial, monic of degree d, constant term first: the
        first power that depends on those before it gives the one relation,
        whose free column, the last, the kernel sets to 1."""
        m = self.matrix(x)
        powers = [self.unit]
        while True:
            power = linalg.mat_mul([powers[-1]], m, self.field)[0]
            relations = linalg.left_nullspace(powers + [power], self.field)
            if relations:
                return powers, relations[0]
            powers.append(power)


def _slice_points(support: list, atoms: list[list], slice_monos: Sequence,
                  field: FieldDescriptor) -> list[tuple]:
    """The slice coordinates of the sums of subsets of `atoms` (vectors over
    `support`) that lie in the slice, sorted.  Σ c_i·atom_i lies there when
    its entries off the slice vanish, a linear condition on c whose
    solutions W have an RREF basis; the 0/1 points of W are among the sums
    of subsets of that basis, one per 0/1 assignment of its pivots.  The
    2^dim W assignments are guarded by `LIMITS.max_factors`."""
    inside = set(slice_monos)
    off = [[atom[i] for atom in atoms]
           for i, m in enumerate(support) if m not in inside]
    basis = linalg.row_basis(linalg.nullspace(off, len(atoms), field), field)
    if len(basis) > LIMITS.max_factors:
        raise ResourceLimitError(
            f"{len(basis)} independent idempotents on the slice exceed guard "
            f"max_factors = {LIMITS.max_factors}")
    where = {m: i for i, m in enumerate(support)}
    zero, one = field.zero(), field.one()
    on_slice = [[atom[where[m]] if m in where else zero for m in slice_monos]
                for atom in atoms]
    points = []
    for bits in itertools.product((zero, one), repeat=len(basis)):
        c = linalg.mat_mul([bits], basis, field)[0]
        if all(v == zero or v == one for v in c):
            points.append(tuple(linalg.mat_mul([c], on_slice, field)[0]))
    return sorted(points)


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
